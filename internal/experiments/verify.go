package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/workload"
)

// verifyScenarios is the randomized-scenario count of -exp verify.
const verifyScenarios = 200

// verifyShrinkProbes bounds the shrinker's re-runs after a failure.
const verifyShrinkProbes = 200

// verifyRun is the scenario entry point; tests substitute it to exercise
// the failure-reporting path without a real oracle bug.
var verifyRun = check.RunScenario

// VerifyRegime aggregates checker work over one class of scenarios.
type VerifyRegime struct {
	Scenarios          int
	Intervals          int // observation points audited (both modes)
	ContentChecks      int
	RefcountChecks     int
	QuarantineChecks   int
	CompletenessGroups int
	// DiffEligible counts scenarios whose merge sets are mode-comparable
	// (fault-free, unpressured, no live events); DiffChecked counts those
	// actually compared — the two must agree, which the sweep test pins.
	// Groups is the total number of equal clean merge groups.
	DiffEligible int
	DiffChecked  int
	Groups       int
}

func (r *VerifyRegime) add(rep *check.Report) {
	r.Scenarios++
	if rep.Scenario.DiffComparable() {
		r.DiffEligible++
	}
	for _, c := range []check.Counters{rep.KSM, rep.PageForge} {
		r.Intervals += c.Intervals
		r.ContentChecks += c.ContentChecks
		r.RefcountChecks += c.RefcountChecks
		r.QuarantineChecks += c.QuarantineChecks
		r.CompletenessGroups += c.CompletenessGroups
	}
	if rep.DiffChecked {
		r.DiffChecked++
		r.Groups += rep.Groups
	}
}

// VerifyResult summarizes a randomized model-based verification sweep.
type VerifyResult struct {
	N         int
	Seed      uint64
	FaultFree VerifyRegime
	Faulted   VerifyRegime
}

// Verify runs verifyScenarios randomized scenarios (see internal/workload)
// through both dedup engines with the full invariant checker attached,
// plus the differential merge-set equivalence on fault-free runs.
func Verify(s *Suite) (*VerifyResult, error) { return verify(s, verifyScenarios) }

// verify runs n scenarios. They derive deterministically from the suite
// seed and run on the suite's worker pool; results are order-independent,
// and on failure the lowest-index failing scenario is selected, shrunk to
// a minimal reproduction, and reported as an error carrying a
// ready-to-paste regression test.
func verify(s *Suite, n int) (*VerifyResult, error) {
	scenario := func(i int) workload.Scenario {
		return workload.Generate(s.Cfg.Seed*1_000_003 + uint64(i))
	}
	reports := make([]*check.Report, n)
	errs := make([]error, n)
	s.each(n, func(i int) error {
		reports[i], errs[i] = verifyRun(scenario(i))
		return errs[i]
	})

	res := &VerifyResult{N: n, Seed: s.Cfg.Seed}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, shrinkFailure(scenario(i), errs[i])
		}
		if reports[i].FaultFree {
			res.FaultFree.add(reports[i])
		} else {
			res.Faulted.add(reports[i])
		}
	}
	return res, nil
}

// shrinkFailure minimizes a failing scenario and renders an actionable
// error: the original and shrunk scenarios, and a paste-ready Go test.
func shrinkFailure(sc workload.Scenario, firstErr error) error {
	shrunk, probes := workload.Shrink(sc, func(c workload.Scenario) bool {
		_, err := verifyRun(c)
		return err != nil
	}, verifyShrinkProbes)
	_, err := verifyRun(shrunk)
	if err == nil {
		// Shrinking is deterministic, so this only happens if the predicate
		// itself is broken; fall back to the original failure.
		shrunk, err = sc, firstErr
	}
	return fmt.Errorf("experiments: verify failed\n  scenario: %s\n  shrunk (%d probes): %s\n  failure: %v\n\n%s",
		sc, probes, shrunk, err, workload.ReproTest(shrunk, err))
}

// String renders the sweep in the repo's table style.
func (r *VerifyResult) String() string {
	t := &table{
		title: fmt.Sprintf("Model-based verification: %d randomized scenarios (seed %d)",
			r.N, r.Seed),
		header: []string{"regime", "scenarios", "intervals", "content", "refcount", "quarantine", "dup groups", "diff eq"},
	}
	row := func(name string, g VerifyRegime) {
		t.add(name, fmt.Sprint(g.Scenarios), fmt.Sprint(g.Intervals),
			fmt.Sprint(g.ContentChecks), fmt.Sprint(g.RefcountChecks),
			fmt.Sprint(g.QuarantineChecks), fmt.Sprint(g.CompletenessGroups),
			fmt.Sprint(g.DiffChecked))
	}
	row("fault-free", r.FaultFree)
	row("faulted", r.Faulted)
	t.notes = append(t.notes,
		"each scenario runs KSM and PageForge with all four invariants checked at every interval",
		fmt.Sprintf("differential KSM ≡ PageForge clean merge sets equal on %d/%d eligible scenarios (%d groups)",
			r.FaultFree.DiffChecked, r.FaultFree.DiffEligible, r.FaultFree.Groups),
		"faulted, pressured, and live-event runs skip the differential but keep invariants 1-3")
	return t.String()
}
