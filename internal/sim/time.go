// Package sim provides the deterministic building blocks every other
// substrate in the PageForge reproduction shares: simulated time in
// processor cycles, a seedable pseudo-random number generator, and
// streaming statistics collectors.
//
// The simulator is stepped, not event-driven: each model advances time by
// explicit cycle arithmetic (a scan pass charges its cycles, a measurement
// interval spans a fixed number of them), so no event queue exists. All
// simulated time is expressed in processor cycles (uint64). The modeled
// machine runs at 2 GHz, so a helper converts wall-clock durations used by
// the paper (e.g. KSM's sleep_millisecs) into cycles.
package sim

import "math"

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle = uint64

// CyclesPerSecond is the modeled core frequency (Table 2: 2 GHz).
const CyclesPerSecond = 2_000_000_000

// MillisToCycles converts milliseconds of simulated wall-clock time to cycles.
func MillisToCycles(ms float64) Cycle {
	return Cycle(math.Round(ms * CyclesPerSecond / 1e3))
}
