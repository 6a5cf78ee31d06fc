// Package pressure implements the memory-pressure resilience policy layer:
// free-frame watermark levels, a scan-backpressure controller that trades
// merge throughput against demand-path tail latency, and a reversible
// degradation ladder driven by EWMA health signals. Everything here is pure
// policy over plain numbers — no simulation state, no randomness, no wall
// clock — so identical observation sequences produce identical decisions,
// which is what lets the platform pin same-seed runs bit-identical while
// ballooning and throttling are active.
package pressure

import "fmt"

// Level is the free-frame pressure level derived from the watermarks.
type Level int

// Pressure levels, ordered by severity. The names follow the kernel's zone
// watermark vocabulary: below the low watermark background reclaim (more
// aggressive scanning — merging is reclaim) kicks in; below min, demand
// allocations start stalling; below critical, the balloon reclaims
// proactively and latency-shedding is suspended (freeing frames outranks
// tail latency when the next allocation would fail).
const (
	LevelNone Level = iota
	LevelLow
	LevelMin
	LevelCritical
)

// String renders the level.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelLow:
		return "low"
	case LevelMin:
		return "min"
	case LevelCritical:
		return "critical"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Watermarks are free-frame fraction thresholds: the level escalates the
// moment the free fraction falls below a threshold, but de-escalates only
// once it exceeds the threshold plus Hysteresis — allocation and reclaim
// race around the watermark, and the gap keeps the level from flapping
// every pass.
type Watermarks struct {
	Low      float64
	Min      float64
	Critical float64
	// Hysteresis is the extra free fraction required before a level drops.
	Hysteresis float64
}

// DefaultWatermarks places the thresholds at 25% / 10% / 3% free with a 4%
// re-arm gap.
func DefaultWatermarks() Watermarks {
	return Watermarks{Low: 0.25, Min: 0.10, Critical: 0.03, Hysteresis: 0.04}
}

// levelOf maps a free fraction to its raw (hysteresis-free) level.
func (w Watermarks) levelOf(freeFrac float64) Level {
	switch {
	case freeFrac < w.Critical:
		return LevelCritical
	case freeFrac < w.Min:
		return LevelMin
	case freeFrac < w.Low:
		return LevelLow
	default:
		return LevelNone
	}
}

// Config carries every knob of the resilience layer. It is pure policy:
// the allocation storms that exercise it are scheduled as platform events.
// The zero value disables everything.
type Config struct {
	// Enabled arms the layer: overcommitted arena sizing, the stall/balloon
	// reclaim path, watermark backpressure, and the degradation ladder.
	Enabled bool

	// OvercommitRatio is guest demand (resident image + burst region) over
	// host frame capacity; > 1 sizes the arena below demand. 0 or 1 keeps
	// the default (comfortable) arena sizing.
	OvercommitRatio float64

	Watermarks Watermarks

	// BoostBudget multiplies the per-interval scan-page budget while the
	// level is at or above LevelMin (merging is reclaim); ShedBudget
	// multiplies it while the controller is latency-throttled or the ladder
	// sits on its throttled rung.
	BoostBudget float64
	ShedBudget  float64

	// Demand-path p99 latency backpressure: the smoothed p99, as a ratio
	// over the first measured baseline, trips throttling above LatTrip and
	// clears below LatClear (LatClear < LatTrip gives the hysteresis band).
	LatAlpha float64
	LatTrip  float64
	LatClear float64

	// Stall-and-retry policy for failed guest-path allocations: each retry
	// costs StallCycles of simulated backoff and one balloon reclaim of up
	// to BalloonBatch frames; after MaxStallRetries the failure propagates
	// as an error (the run aborts rather than hangs — boundedness is the
	// no-deadlock guarantee).
	StallCycles     uint64
	MaxStallRetries int
	BalloonBatch    int

	Ladder LadderConfig
}

// DefaultConfig returns the policy defaults with Enabled left false; the
// caller arms it and sets the overcommit ratio.
func DefaultConfig() Config {
	return Config{
		Watermarks:      DefaultWatermarks(),
		BoostBudget:     2,
		ShedBudget:      0.5,
		LatAlpha:        0.4,
		LatTrip:         1.5,
		LatClear:        1.15,
		StallCycles:     20_000,
		MaxStallRetries: 8,
		// One balloon batch covers the next BalloonBatch-1 allocations, so
		// under persistent exhaustion the alloc-failure rate settles near
		// 1/BalloonBatch; 16 keeps that comfortably above FailTrip, so a
		// storm that leans on the balloon every pass is visible to the
		// ladder rather than laundered away by huge reclaim batches.
		BalloonBatch: 16,
		Ladder:       DefaultLadderConfig(),
	}
}

// Controller folds free-frame and latency observations into the two
// backpressure outputs: the watermark level (with de-escalation hysteresis)
// and the latency-throttle flag. The two signals pull the scan budget in
// opposite directions — pressure wants more scanning, latency wants less —
// and the tie-break is severity: at LevelCritical the throttle is
// suspended, because a failed allocation costs more than a slow one.
type Controller struct {
	cfg Config

	level     Level
	throttled bool

	latBase   float64
	latEWMA   float64
	latSeeded bool

	// Throttles counts observation points spent in the throttled state.
	Throttles uint64
}

// NewController builds a controller over the config's watermark and
// latency policy.
func NewController(cfg Config) *Controller { return &Controller{cfg: cfg} }

// ObserveFree feeds one free-frame observation and returns the (possibly
// escalated or de-escalated) level. Escalation is immediate; de-escalation
// requires the free fraction to clear the current level's threshold by the
// hysteresis gap.
func (c *Controller) ObserveFree(free, total int) Level {
	if total <= 0 {
		return c.level
	}
	f := float64(free) / float64(total)
	raw := c.cfg.Watermarks.levelOf(f)
	if raw >= c.level {
		c.level = raw
		return c.level
	}
	// Pretend we have Hysteresis less free than we do: only if even that
	// pessimistic reading sits below the current level does the level drop.
	pess := c.cfg.Watermarks.levelOf(f - c.cfg.Watermarks.Hysteresis)
	if pess < c.level {
		c.level = pess
	}
	return c.level
}

// ObserveLatency feeds one demand-path p99 sample (cycles). The first
// sample seeds the baseline; later samples update the EWMA and flip the
// throttle with hysteresis. Zero samples (empty histogram) are ignored.
func (c *Controller) ObserveLatency(p99 float64) {
	if p99 <= 0 {
		return
	}
	if !c.latSeeded {
		c.latBase, c.latEWMA, c.latSeeded = p99, p99, true
		return
	}
	c.latEWMA += c.cfg.LatAlpha * (p99 - c.latEWMA)
	r := c.latEWMA / c.latBase
	switch {
	case !c.throttled && r > c.cfg.LatTrip && c.level < LevelCritical:
		c.throttled = true
	case c.throttled && (r < c.cfg.LatClear || c.level >= LevelCritical):
		c.throttled = false
	}
	if c.throttled {
		c.Throttles++
	}
}

// Level reports the current watermark level.
func (c *Controller) Level() Level { return c.level }

// Throttled reports whether the latency backpressure is shedding scan work.
func (c *Controller) Throttled() bool { return c.throttled }

// LatRatio reports the smoothed p99 over the baseline (1 before seeding).
func (c *Controller) LatRatio() float64 {
	if !c.latSeeded || c.latBase <= 0 {
		return 1
	}
	return c.latEWMA / c.latBase
}

// ScanBudget scales a per-interval page budget: shed under latency
// throttling, boost at LevelMin and above, unchanged otherwise. The result
// never drops below 1 — a starving scanner can't reclaim anything.
func (c *Controller) ScanBudget(base int) int {
	if base <= 0 {
		return base
	}
	switch {
	case c.throttled:
		b := int(float64(base) * c.cfg.ShedBudget)
		if b < 1 {
			b = 1
		}
		return b
	case c.level >= LevelMin:
		return int(float64(base) * c.cfg.BoostBudget)
	default:
		return base
	}
}
