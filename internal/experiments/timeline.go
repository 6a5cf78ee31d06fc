package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/ksm"
	"repro/internal/memctrl"
	"repro/internal/pageforge"
	"repro/internal/tailbench"
)

// TimelineResult tracks how fast each engine converges to the steady-state
// memory savings under identical tunables (sleep_millisecs, pages_to_scan).
// The paper never plots this, but it falls out of the model and matters to
// operators: PageForge trades a slower wall-clock ramp (its scan rate is
// bounded by the 12k-cycle polling protocol) for near-zero core cost.
type TimelineResult struct {
	App string
	// SavingsKSM[i] / SavingsPF[i] are the footprint savings after
	// interval i (5ms each).
	SavingsKSM []float64
	SavingsPF  []float64
	// Core busy share of one core, averaged over the ramp.
	KSMCorePct float64
	PFCorePct  float64
}

// Timeline measures the convergence ramp on one application.
func Timeline(s *Suite, app tailbench.Profile, intervals int) (*TimelineResult, error) {
	res := &TimelineResult{App: app.Name}
	interval := s.Cfg.IntervalCycles()

	// Software KSM ramp.
	{
		img, err := tailbench.BuildImage(app, s.Cfg.VMs, s.Cfg.VMs*app.PagesPerVM*2+1024, s.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		sc := ksm.NewScanner(ksm.NewAlgorithm(img.HV, ksm.JHasher{}), s.Cfg.KSMCosts)
		var busy uint64
		for k := 0; k < intervals; k++ {
			before := sc.Cycles.Total()
			sc.ScanBatch(s.Cfg.PagesToScan)
			busy += sc.Cycles.Total() - before
			res.SavingsKSM = append(res.SavingsKSM, img.MeasureFootprint().Savings())
		}
		res.KSMCorePct = float64(busy) / float64(uint64(intervals)*interval) * 100
	}

	// PageForge ramp.
	{
		img, err := tailbench.BuildImage(app, s.Cfg.VMs, s.Cfg.VMs*app.PagesPerVM*2+1024, s.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		mc := memctrl.New(dram.New(s.Cfg.DRAM), img.HV.Phys, nil)
		drv := pageforge.NewDriver(ksm.NewAlgorithm(img.HV, ksm.NewECCHasher()),
			pageforge.NewEngine(mc), s.Cfg.Driver)
		pfNow := uint64(0)
		var busy uint64
		for k := 0; k < intervals; k++ {
			start := uint64(k) * interval
			if pfNow < start {
				pfNow = start
			}
			end := start + interval
			cc := drv.CoreCycles
			_, _, pfNow = drv.ScanBatch(s.Cfg.PagesToScan, pfNow, end)
			busy += drv.CoreCycles - cc
			res.SavingsPF = append(res.SavingsPF, img.MeasureFootprint().Savings())
		}
		res.PFCorePct = float64(busy) / float64(uint64(intervals)*interval) * 100
	}
	return res, nil
}

// String renders the ramp as sampled rows plus a sparkline-style bar.
func (r *TimelineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Convergence timeline (%s): footprint savings per 5ms interval\n", r.App)
	fmt.Fprintf(&b, "%10s %12s %28s %12s %28s\n", "interval", "KSM", "", "PageForge", "")
	bar := func(v float64) string {
		n := int(v * 40)
		return strings.Repeat("#", n)
	}
	step := len(r.SavingsKSM) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.SavingsKSM); i += step {
		fmt.Fprintf(&b, "%10d %11.1f%% %-28s %11.1f%% %-28s\n",
			i, r.SavingsKSM[i]*100, bar(r.SavingsKSM[i]),
			r.SavingsPF[i]*100, bar(r.SavingsPF[i]))
	}
	last := len(r.SavingsKSM) - 1
	fmt.Fprintf(&b, "%10d %11.1f%% %-28s %11.1f%% %-28s\n",
		last, r.SavingsKSM[last]*100, bar(r.SavingsKSM[last]),
		r.SavingsPF[last]*100, bar(r.SavingsPF[last]))
	fmt.Fprintf(&b, "\n  core cost during the ramp: KSM %.1f%%, PageForge %.1f%% of one core\n",
		r.KSMCorePct, r.PFCorePct)
	fmt.Fprintf(&b, "  PageForge ramps slower (scan rate bounded by the 12k-cycle polling\n")
	fmt.Fprintf(&b, "  protocol) but reaches the same savings at ~%.0fx less core cost.\n",
		r.KSMCorePct/maxf(r.PFCorePct, 0.01))
	return b.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
