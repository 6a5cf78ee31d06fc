package experiments

import (
	"fmt"
	"strings"

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

// timelineRamp is one engine's convergence ramp: the savings after each
// interval and the engine's busy share of one core over the ramp.
type timelineRamp struct {
	savings []float64
	corePct float64
}

// timelinePoint measures the convergence ramp on one application over
// timelineIntervals sleep intervals: point 0 runs software KSM, point 1
// PageForge.
func timelinePoint(s *Suite, app tailbench.Profile, i int) (timelineRamp, error) {
	img, err := tailbench.BuildImage(app, s.Cfg.VMs, s.Cfg.VMs*app.PagesPerVM*2+1024, s.Cfg.Seed)
	if err != nil {
		return timelineRamp{}, err
	}
	st := newStepper(img.HV, s.Cfg, i == 1, s.Cfg.IntervalCycles())
	var r timelineRamp
	for k := 0; k < timelineIntervals; k++ {
		st.step(s.Cfg.PagesToScan)
		r.savings = append(r.savings, img.MeasureFootprint().Savings())
	}
	r.corePct = st.corePct()
	return r, nil
}

// newTimelineResult assembles one application's KSM and PageForge ramps.
func newTimelineResult(_ *Suite, app tailbench.Profile, ramps []timelineRamp) *TimelineResult {
	return &TimelineResult{App: app.Name, SavingsKSM: ramps[0].savings, SavingsPF: ramps[1].savings,
		KSMCorePct: ramps[0].corePct, PFCorePct: ramps[1].corePct}
}

// String renders the ramp as sampled rows plus a sparkline-style bar.
func (r *TimelineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Convergence timeline (%s): footprint savings per 5ms interval\n", r.App)
	fmt.Fprintf(&b, "%10s %12s %28s %12s %28s\n", "interval", "KSM", "", "PageForge", "")
	bar := func(v float64) string { return strings.Repeat("#", int(v*40)) }
	row := func(i int) {
		fmt.Fprintf(&b, "%10d %11.1f%% %-28s %11.1f%% %-28s\n",
			i, r.SavingsKSM[i]*100, bar(r.SavingsKSM[i]),
			r.SavingsPF[i]*100, bar(r.SavingsPF[i]))
	}
	for i := 0; i < len(r.SavingsKSM); i += max(len(r.SavingsKSM)/12, 1) {
		row(i)
	}
	row(len(r.SavingsKSM) - 1)
	fmt.Fprintf(&b, "\n  core cost during the ramp: KSM %.1f%%, PageForge %.1f%% of one core\n",
		r.KSMCorePct, r.PFCorePct)
	fmt.Fprintf(&b, "  PageForge ramps slower (scan rate bounded by the 12k-cycle polling\n")
	fmt.Fprintf(&b, "  protocol) but reaches the same savings at ~%.0fx less core cost.\n",
		r.KSMCorePct/max(r.PFCorePct, 0.01))
	return b.String()
}
