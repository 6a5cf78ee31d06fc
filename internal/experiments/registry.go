package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/platform"
	"repro/internal/tailbench"
)

// Artifact is one rendered experiment result: the structured value the
// -json document holds under Key, and the text table printed in its place.
type Artifact struct {
	Key   string
	Value any
	Text  string
}

// Experiment is one `pageforge run -exp` harness.
type Experiment struct {
	Name  string // the -exp name
	Title string // the paper artifact it regenerates, as `list` prints it
	// Modes are the configurations whose cached (mode × app) suite runs the
	// experiment reads; a run fans them out across the worker pool up front.
	Modes []platform.Mode
	// Run produces the experiment's artifacts, running its fixed grid of
	// independent points on the suite's worker pool. With a non-nil error
	// the artifacts that did complete are still returned.
	Run func(s *Suite) ([]Artifact, error)
}

// Set is an ordered selection of experiments; its order is output order.
type Set []Experiment

// Registry returns every experiment in output order.
func Registry() Set { return slices.Clone(registry) }

// Select resolves an -exp value: "all" selects the whole set, any other
// value the one experiment of that name.
func (set Set) Select(name string) (Set, error) {
	if name == "all" {
		return set, nil
	}
	for _, e := range set {
		if e.Name == name {
			return Set{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(set.Names(), ", "))
}

// Names lists the experiments' names in order.
func (set Set) Names() []string {
	names := make([]string, len(set))
	for i, e := range set {
		names[i] = e.Name
	}
	return names
}

// Modes is the union of the experiments' suite configurations, in
// AllModes order.
func (set Set) Modes() []platform.Mode {
	var modes []platform.Mode
	for _, m := range AllModes() {
		for _, e := range set {
			if slices.Contains(e.Modes, m) {
				modes = append(modes, m)
				break
			}
		}
	}
	return modes
}

// one adapts a harness with a single result rendered by its String method.
func one[T fmt.Stringer](name, title string, modes []platform.Mode, run func(*Suite) (T, error)) Experiment {
	return Experiment{Name: name, Title: title, Modes: modes, Run: func(s *Suite) ([]Artifact, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return []Artifact{{Key: name, Value: r, Text: r.String()}}, nil
	}}
}

// latencyFigure renders one of Figures 9 and 10 from the suite's shared
// queueing phase; the -json document holds the whole LatencyResult.
func latencyFigure(name, title string, render func(*LatencyResult) string) Experiment {
	return Experiment{Name: name, Title: title, Modes: AllModes(), Run: func(s *Suite) ([]Artifact, error) {
		r, err := s.latency()
		if err != nil {
			return nil, err
		}
		return []Artifact{{Key: name, Value: r, Text: render(r)}}, nil
	}}
}

// perApp adapts a study that runs a fixed number of independent points per
// suite application: every (app, point) pair runs in one pass over the
// suite's worker pool, each app's rows are assembled in point order, and
// the app's artifact is keyed name_app. A failing app does not stop the
// others; it reports its lowest-index failure.
func perApp[R any, T fmt.Stringer](name, title string, points int,
	point func(s *Suite, app tailbench.Profile, i int) (R, error),
	assemble func(s *Suite, app tailbench.Profile, rows []R) T) Experiment {
	return Experiment{Name: name, Title: title, Run: func(s *Suite) ([]Artifact, error) {
		rows := make([]R, len(s.Apps)*points)
		errs := make([]error, len(rows))
		s.each(len(rows), func(k int) error {
			rows[k], errs[k] = point(s, s.Apps[k/points], k%points)
			return errs[k]
		})
		var arts []Artifact
		var appErrs []error
		for a, app := range s.Apps {
			lo, hi := a*points, (a+1)*points
			if err := firstErr(errs[lo:hi]); err != nil {
				appErrs = append(appErrs, err)
				continue
			}
			r := assemble(s, app, rows[lo:hi:hi])
			arts = append(arts, Artifact{Key: name + "_" + app.Name, Value: r, Text: r.String()})
		}
		return arts, errors.Join(appErrs...)
	}}
}

// timelineIntervals is the ramp length of -exp timeline, in 5 ms intervals.
const timelineIntervals = 60

var registry = Set{
	one("fig7", "Figure 7: memory allocation without/with page merging (avg -48%)",
		[]platform.Mode{platform.KSM}, Figure7),
	one("fig8", "Figure 8: jhash vs ECC-based hash key comparison outcomes", nil, Figure8),
	one("table4", "Table 4: KSM configuration characterization",
		[]platform.Mode{platform.Baseline, platform.KSM}, Table4),
	latencyFigure("fig9", "Figure 9: mean sojourn latency (Baseline/KSM/PageForge)", (*LatencyResult).Figure9),
	latencyFigure("fig10", "Figure 10: 95th percentile latency", (*LatencyResult).Figure10),
	one("fig11", "Figure 11: memory bandwidth in the dedup-intensive phase", AllModes(), Figure11),
	one("table5", "Table 5: PageForge timing, area, and power",
		[]platform.Mode{platform.PageForge}, Table5),
	one("latency", "Demand-access latency distribution (mean/p50/p95/p99/max cycles)", AllModes(), DemandLatency),
	one("satori", "Extension: short-lived sharing capture vs scan aggressiveness (Satori, §7.2)", nil, Satori),
	perApp("timeline", "Extension: savings convergence ramp, KSM vs PageForge", 2, timelinePoint, newTimelineResult),
	perApp("sweep", "§2.1 tunables: sleep_millisecs × pages_to_scan vs savings and kthread core cost",
		len(sweepGrid), sweepPoint, newSweepResult),
	one("ras", "Extension: DRAM fault rate vs merge coverage, scrub/retry overhead, degradation", nil, RAS),
	one("verify", "Model-based verification: randomized scenarios, invariant checker, KSM≡PageForge differential", nil, Verify),
	one("pressure", "Robustness: overcommit storm vs graceful OOM, ballooning, backpressure, degradation ladder", nil, Pressure),
	one("crash", "Robustness: host crash x checkpoint interval vs verified recovery, replay cost, bit-identity", nil, Crash),
	one("efficiency", "Observability: scan-budget attribution (ledger causes), convergence speed, zero-perturbation proof", nil,
		Efficiency),
	one("stream", "Runtime: tick-driven streaming runs — config-scheduled ≡ live-injected event equivalence per world shape", nil,
		Stream),
}
