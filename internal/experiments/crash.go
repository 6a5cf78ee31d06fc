package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/check"
	"repro/internal/platform"
	"repro/internal/tailbench"
)

// The crash experiment (a robustness extension beyond the paper's
// evaluation): a crash-point x checkpoint-interval sweep over the
// checkpoint/restore machinery. Each point kills the host at a drawn
// convergence pass, restores the newest checkpoint, verifies the recovered
// dedup index (hint-then-verify plus the refcount ledger), and replays the
// lost passes — with the full invariant checker attached at every
// observation point of the crashed run. The headline claim is bit-identity:
// after zeroing the Crash report, the crashed-and-recovered Result must be
// deeply equal to an uninterrupted same-seed run's. The sweep's measured
// trade-off is the classic one: sparser checkpoints cost less capture work
// but lose more passes per crash (re-merge traffic, reconvergence time).

// CrashRow is one (crash pass, checkpoint interval) data point.
type CrashRow struct {
	// CrashPass is the convergence pass the host dies at; Every the
	// checkpoint cadence in passes (0 = boot checkpoint only).
	CrashPass int
	Every     int

	Crashes     int
	Checkpoints int
	Restores    int

	// Recovery cost: passes replayed, merges destroyed and re-done, and the
	// out-of-band recovery latency (restore + backoff + audit cost model).
	ReplayedPasses int
	RemergedPages  uint64
	RecoveryCycles uint64

	// Recovery-audit work on the restored index.
	StableVerified int
	BytesVerified  uint64

	// ConvergedPasses and SavingsPct summarize the run the recovery
	// resumed; Identical is the tentpole bit-identity verdict against the
	// uninterrupted run.
	ConvergedPasses int
	SavingsPct      float64
	Identical       bool

	// Oracle work: observation points audited and page-content comparisons
	// performed by the invariant checker during the crashed run.
	Intervals     int
	ContentChecks int
}

// CrashResult is the sweep.
type CrashResult struct {
	Rows []CrashRow
}

// crashPasses spans the convergence window: the early-exit gate needs at
// least three passes (p >= 2), and the pass boundary fires the crash plan
// before the convergence verdict, so every point up to pass 2 is
// guaranteed to crash on any world. (A pass scheduled beyond convergence
// never fires; crashPoint rejects such a point rather than report a
// recovery that never ran.)
var crashPasses = []int{0, 1, 2}

// checkpointIntervals spans boot-only through every-pass checkpointing —
// the sparser the cadence, the more passes a crash loses.
var checkpointIntervals = []int{0, 1, 2}

// crashWorld is the crash deployment: a compact merge-rich fleet with churn
// (volatile pages CoW-break between passes), so a crash genuinely destroys
// merge work that the replay must re-do.
func crashWorld() (tailbench.Profile, platform.Config) {
	app := *tailbench.ProfileByName("silo")
	app.PagesPerVM = 100
	app.VolatileFrac = 0.3
	cfg := platform.DefaultConfig()
	cfg.VMs = 4
	cfg.Cores = 4
	cfg.ConvergePasses = 8
	cfg.MeasureIntervals = 2
	return app, cfg
}

// crashPoint runs one grid point: the crashed run audited by the invariant
// checker (which rides along through the restore via its CrashObserver
// hooks). Its Result must be deeply equal to the uninterrupted run want
// once the Crash report is zeroed.
func crashPoint(seed uint64, crashPass, every int, want *platform.Result) (CrashRow, error) {
	app, cfg := crashWorld()
	cfg.Seed = seed
	cfg.CheckpointEvery = every
	cfg.Events = []platform.Event{{Pass: crashPass, Kind: platform.EvCrash}}

	ck := &check.Checker{}
	cfg.Verifier = ck
	res, err := platform.Run(platform.PageForge, app, cfg)
	if err != nil {
		return CrashRow{}, fmt.Errorf("experiments: crash pass %d every %d: %w", crashPass, every, err)
	}

	rep := res.Crash
	if rep.Crashes == 0 {
		// A crash scheduled past convergence never fires: the row would
		// claim a recovery that never ran.
		return CrashRow{}, fmt.Errorf(
			"experiments: crash pass %d every %d: no crash fired (the run converged after %d passes)",
			crashPass, every, res.ConvergedPasses)
	}
	a, b := *res, *want
	a.Crash, b.Crash = platform.CrashReport{}, platform.CrashReport{}
	identical := reflect.DeepEqual(&a, &b)
	if !identical {
		return CrashRow{}, fmt.Errorf(
			"experiments: crash pass %d every %d: recovered run diverged from uninterrupted run",
			crashPass, every)
	}

	return CrashRow{
		CrashPass:       crashPass,
		Every:           every,
		Crashes:         rep.Crashes,
		Checkpoints:     rep.Checkpoints,
		Restores:        rep.Restores,
		ReplayedPasses:  rep.ReplayedPasses,
		RemergedPages:   rep.RemergedPages,
		RecoveryCycles:  rep.RecoveryCycles,
		StableVerified:  rep.StableVerified,
		BytesVerified:   rep.BytesVerified,
		ConvergedPasses: res.ConvergedPasses,
		SavingsPct:      res.Footprint.Savings() * 100,
		Identical:       identical,
		Intervals:       ck.Counters.Intervals,
		ContentChecks:   ck.Counters.ContentChecks,
	}, nil
}

// Crash sweeps crash point x checkpoint interval.
func Crash(s *Suite) (*CrashResult, error) { return crashSweep(s, crashPasses, checkpointIntervals) }

// crashSweep runs one point per (interval, crash pass), interval-major, on
// the suite's worker pool. Points are independent hermetic worlds sharing
// the suite seed, so one uninterrupted run of the crash world (no events,
// checkpoints or verifier), made first, serves them all.
func crashSweep(s *Suite, passes, intervals []int) (*CrashResult, error) {
	app, cfg := crashWorld()
	cfg.Seed = s.Cfg.Seed
	want, err := platform.Run(platform.PageForge, app, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: crash (uninterrupted): %w", err)
	}
	res := &CrashResult{Rows: make([]CrashRow, len(intervals)*len(passes))}
	err = s.each(len(res.Rows), func(i int) (err error) {
		res.Rows[i], err = crashPoint(s.Cfg.Seed, passes[i%len(passes)], intervals[i/len(passes)], want)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the sweep as a table.
func (r *CrashResult) String() string {
	t := &table{
		title: "Crash: checkpoint/restore recovery vs crash point and checkpoint interval",
		header: []string{"crash@", "every", "crashes", "ckpts", "restores", "replayed",
			"remerged", "rec-cycles", "verified", "savings", "identical"},
	}
	for _, row := range r.Rows {
		every := fmt.Sprintf("%d", row.Every)
		if row.Every == 0 {
			every = "boot"
		}
		t.add(
			fmt.Sprintf("%d", row.CrashPass),
			every,
			fmt.Sprintf("%d", row.Crashes),
			fmt.Sprintf("%d", row.Checkpoints),
			fmt.Sprintf("%d", row.Restores),
			fmt.Sprintf("%d", row.ReplayedPasses),
			fmt.Sprintf("%d", row.RemergedPages),
			fmt.Sprintf("%d", row.RecoveryCycles),
			fmt.Sprintf("%d", row.StableVerified),
			f1(row.SavingsPct)+"%",
			fmt.Sprintf("%v", row.Identical),
		)
	}
	t.notes = append(t.notes,
		"each point crashes the host at the given convergence pass, restores the",
		"newest checkpoint, verifies the recovered index (hint-then-verify + refcount",
		"ledger), and replays; 'identical' = the recovered run's Result is deeply",
		"equal to an uninterrupted same-seed run's (the Crash report aside).",
		"sparser checkpoints replay more passes and re-merge more pages per crash.")
	return t.String()
}
