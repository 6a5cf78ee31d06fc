package experiments

import (
	"repro/internal/dram"
	"repro/internal/ksm"
	"repro/internal/memctrl"
	"repro/internal/pageforge"
	"repro/internal/platform"
	"repro/internal/vm"
)

// stepper scans a hand-built world with one dedup engine, one sleep
// interval at a time, for the experiments that run outside
// platform.Runtime (timeline, satori, sweep). It hides which engine runs
// and PageForge's running clock, which a batch may carry past the end of
// its interval.
type stepper struct {
	alg      *ksm.Algorithm
	scanner  *ksm.Scanner      // software KSM, or
	driver   *pageforge.Driver // PageForge behind its own memory controller
	interval uint64
	k        uint64 // intervals stepped
	busy     uint64 // core cycles the engine kept busy
	pfNow    uint64
}

// newStepper builds software KSM over hv with the config's KSMCosts or,
// with pageForge, a PageForge driver with the config's DRAM and Driver
// settings.
func newStepper(hv *vm.Hypervisor, cfg platform.Config, pageForge bool, interval uint64) *stepper {
	st := &stepper{interval: interval}
	if pageForge {
		st.alg = ksm.NewAlgorithm(hv, ksm.NewECCHasher())
		mc := memctrl.New(dram.New(cfg.DRAM), hv.Phys, nil)
		st.driver = pageforge.NewDriver(st.alg, pageforge.NewEngine(mc), cfg.Driver)
	} else {
		st.alg = ksm.NewAlgorithm(hv, ksm.JHasher{})
		st.scanner = ksm.NewScanner(st.alg, cfg.KSMCosts)
	}
	return st
}

// step scans up to pages candidates in the next interval and reports
// whether the batch finished a full scan.
func (st *stepper) step(pages int) (passEnded bool) {
	start := st.k * st.interval
	st.k++
	scans := st.alg.Stats.FullScans
	if st.scanner != nil {
		before := st.scanner.Cycles.Total()
		st.scanner.ScanBatch(pages)
		st.busy += st.scanner.Cycles.Total() - before
	} else {
		st.pfNow = max(st.pfNow, start)
		before := st.driver.CoreCycles
		_, _, st.pfNow = st.driver.ScanBatch(pages, st.pfNow, start+st.interval)
		st.busy += st.driver.CoreCycles - before
	}
	return st.alg.Stats.FullScans > scans
}

// corePct is the engine's busy share of one core over the intervals
// stepped so far, in percent.
func (st *stepper) corePct() float64 {
	return float64(st.busy) / float64(st.k*st.interval) * 100
}
