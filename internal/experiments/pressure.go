package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/check"
	"repro/internal/platform"
	"repro/internal/pressure"
	"repro/internal/tailbench"
)

// The pressure experiment (a robustness extension beyond the paper's
// evaluation): an overcommit-ratio sweep that drives the memory-pressure
// resilience layer through an allocation-burst storm. Each point runs a
// merge-poor overcommitted fleet where demand (resident images + burst
// region) exceeds arena capacity, with the full invariant checker attached
// at every observation point — the claim is not just that the run survives
// graceful-OOM stalls, ballooning, and ladder degradation, but that the
// merge invariants hold *while* those mechanisms are active. Every point
// runs twice and the two pressure reports must be deeply equal: the
// stall/balloon/throttle machinery is bit-deterministic.

// PressureRow is one overcommit-ratio data point.
type PressureRow struct {
	// Ratio is the requested demand/capacity overcommit; EffRatio is the
	// realized ratio after the arena floor (the resident images must fit).
	Ratio    float64
	EffRatio float64
	// Frames is the arena size; MinFreeFrames the freelist low-water mark.
	Frames        int
	MinFreeFrames int

	BurstPages       uint64
	AllocStalls      uint64
	BalloonReclaimed uint64
	ThrottledPoints  uint64
	PausedPasses     uint64

	// SavingsPct is the end-of-run memory savings (merging is reclaim, so
	// it keeps working through the storm).
	SavingsPct float64

	// Ladder trajectory: transition count, rendered path, final rung, and
	// whether the run left Healthy and returned to it.
	Transitions int
	Path        string
	Final       string
	Recovered   bool

	// Oracle work: observation points audited and page-content comparisons
	// performed by the invariant checker during this point's first run.
	Intervals     int
	ContentChecks int
}

// PressureResult is the sweep.
type PressureResult struct {
	Rows []PressureRow
	// Storm is the per-point burst shape (pages/VM/pass x passes).
	StormPages  int
	StormPasses int
}

// pressureRatios spans comfortable capacity to a 2x overcommit.
var pressureRatios = []float64{1.0, 1.25, 1.5, 2.0}

// pressureStorm is every point's allocation-burst storm: from pass 1, 30
// fresh pages per VM per pass for 3 passes, torn down at pass 4.
var pressureStorm = platform.Event{Pass: 1, Kind: platform.EvBalloonStorm, Pages: 30, Passes: 3}

// pressureWorld is the storm deployment: a compact merge-poor fleet (low
// dup/zero fractions, churn) so scanning cannot instantly reclaim the
// burst — demand has to race merging for the ladder to see real pressure.
func pressureWorld() (tailbench.Profile, platform.Config) {
	app := *tailbench.ProfileByName("silo")
	app.PagesPerVM = 100
	app.BurstPagesPerVM = 90
	app.DupFrac = 0.15
	app.ZeroFrac = 0.05
	app.VolatileFrac = 0.3
	cfg := platform.DefaultConfig()
	cfg.VMs = 4
	cfg.Cores = 4
	cfg.ConvergePasses = 14
	cfg.MeasureIntervals = 4
	return app, cfg
}

// pressurePoint runs one overcommit ratio twice — once audited by the
// invariant checker, once bare — and cross-checks the two pressure reports
// for deep equality (the verifier must not perturb the run).
func pressurePoint(seed uint64, ratio float64) (PressureRow, error) {
	app, cfg := pressureWorld()
	cfg.Seed = seed
	pc := pressure.DefaultConfig()
	pc.Enabled = true
	pc.OvercommitRatio = ratio
	cfg.Pressure = pc
	cfg.Events = []platform.Event{pressureStorm}

	ck := &check.Checker{}
	cfg.Verifier = ck
	res, err := platform.Run(platform.PageForge, app, cfg)
	if err != nil {
		return PressureRow{}, fmt.Errorf("experiments: pressure ratio %.2f: %w", ratio, err)
	}

	cfg.Verifier = nil
	again, err := platform.Run(platform.PageForge, app, cfg)
	if err != nil {
		return PressureRow{}, fmt.Errorf("experiments: pressure ratio %.2f (replay): %w", ratio, err)
	}
	if !reflect.DeepEqual(res.Pressure, again.Pressure) {
		return PressureRow{}, fmt.Errorf(
			"experiments: pressure ratio %.2f: same-seed pressure reports diverged\n  audited: %+v\n  bare:    %+v",
			ratio, res.Pressure, again.Pressure)
	}

	rep := res.Pressure
	demand := cfg.VMs * (app.PagesPerVM + app.BurstPagesPerVM)
	return PressureRow{
		Ratio:            ratio,
		EffRatio:         float64(demand) / float64(rep.TotalFrames),
		Frames:           rep.TotalFrames,
		MinFreeFrames:    rep.MinFreeFrames,
		BurstPages:       rep.BurstPages,
		AllocStalls:      rep.AllocStalls,
		BalloonReclaimed: rep.BalloonReclaimed,
		ThrottledPoints:  rep.ThrottledPoints,
		PausedPasses:     rep.PausedPasses,
		SavingsPct:       res.Footprint.Savings() * 100,
		Transitions:      len(rep.Transitions),
		Path:             rep.Path,
		Final:            rep.Final.String(),
		Recovered:        rep.Recovered,
		Intervals:        ck.Counters.Intervals,
		ContentChecks:    ck.Counters.ContentChecks,
	}, nil
}

// Pressure sweeps the overcommit ratio against the resilience machinery's
// behavior.
func Pressure(s *Suite) (*PressureResult, error) { return pressureSweep(s, pressureRatios) }

// pressureSweep runs one point per ratio on the suite's worker pool. Points
// are independent hermetic worlds sharing the suite seed.
func pressureSweep(s *Suite, ratios []float64) (*PressureResult, error) {
	res := &PressureResult{Rows: make([]PressureRow, len(ratios)),
		StormPages: pressureStorm.Pages, StormPasses: pressureStorm.Passes}
	err := s.each(len(ratios), func(i int) (err error) {
		res.Rows[i], err = pressurePoint(s.Cfg.Seed, ratios[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the sweep as a table.
func (r *PressureResult) String() string {
	t := &table{
		title: fmt.Sprintf("Pressure: overcommit storm vs resilience ladder (burst %d pages/VM x %d passes)",
			r.StormPages, r.StormPasses),
		header: []string{"ratio", "eff", "frames", "min-free", "burst", "stalls",
			"balloon", "throttle", "paused", "savings", "trans", "final", "path"},
	}
	for _, row := range r.Rows {
		final := row.Final
		if row.Recovered {
			final += "*"
		}
		t.add(
			f2(row.Ratio),
			f2(row.EffRatio),
			fmt.Sprintf("%d", row.Frames),
			fmt.Sprintf("%d", row.MinFreeFrames),
			fmt.Sprintf("%d", row.BurstPages),
			fmt.Sprintf("%d", row.AllocStalls),
			fmt.Sprintf("%d", row.BalloonReclaimed),
			fmt.Sprintf("%d", row.ThrottledPoints),
			fmt.Sprintf("%d", row.PausedPasses),
			f1(row.SavingsPct)+"%",
			fmt.Sprintf("%d", row.Transitions),
			final,
			row.Path,
		)
	}
	t.notes = append(t.notes,
		"each point runs twice (audited by the invariant checker, then bare); the",
		"pressure reports must be deeply equal — stalls, ballooning, and ladder",
		"transitions are bit-deterministic. final '*' = degraded and recovered.")
	return t.String()
}
