package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/platform"
	"repro/internal/tailbench"
)

// Inputs carries the sweep parameters of the experiments that take them.
// An empty slice selects that experiment's default sweep; VerifyN is the
// verify scenario count (DefaultVerifyScenarios on the command line).
type Inputs struct {
	FaultRates  []float64 // ras: UE-per-read rates
	VerifyN     int       // verify: randomized scenario count
	Overcommit  []float64 // pressure: demand/capacity ratios
	CrashPasses []int     // crash: convergence passes to crash at
	CkptEvery   []int     // crash: checkpoint intervals
}

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
	// Run produces the experiment's artifacts. With a non-nil error the
	// artifacts that did complete are still returned.
	Run func(s *Suite, in Inputs) ([]Artifact, error)
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
func one[T fmt.Stringer](name, title string, modes []platform.Mode, run func(*Suite, Inputs) (T, error)) Experiment {
	return Experiment{Name: name, Title: title, Modes: modes, Run: func(s *Suite, in Inputs) ([]Artifact, error) {
		r, err := run(s, in)
		if err != nil {
			return nil, err
		}
		return []Artifact{{Key: name, Value: r, Text: r.String()}}, nil
	}}
}

// noInputs adapts a harness that takes no sweep parameters.
func noInputs[T any](run func(*Suite) (T, error)) func(*Suite, Inputs) (T, error) {
	return func(s *Suite, _ Inputs) (T, error) { return run(s) }
}

// latencyFigure renders one of Figures 9 and 10 from the suite's shared
// queueing phase; the -json document holds the whole LatencyResult.
func latencyFigure(name, title string, render func(*LatencyResult) string) Experiment {
	return Experiment{Name: name, Title: title, Modes: AllModes(), Run: func(s *Suite, _ Inputs) ([]Artifact, error) {
		r, err := s.latency()
		if err != nil {
			return nil, err
		}
		return []Artifact{{Key: name, Value: r, Text: render(r)}}, nil
	}}
}

// perApp adapts a harness run once per suite application, keying each
// app's artifact name_app; a failing app does not stop the others.
func perApp[T fmt.Stringer](name, title string, run func(*Suite, tailbench.Profile) (T, error)) Experiment {
	return Experiment{Name: name, Title: title, Run: func(s *Suite, _ Inputs) ([]Artifact, error) {
		var arts []Artifact
		var errs []error
		for _, app := range s.Apps {
			r, err := run(s, app)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			arts = append(arts, Artifact{Key: name + "_" + app.Name, Value: r, Text: r.String()})
		}
		return arts, errors.Join(errs...)
	}}
}

// timelineIntervals is the ramp length of -exp timeline, in 5 ms intervals.
const timelineIntervals = 60

var registry = Set{
	one("fig7", "Figure 7: memory allocation without/with page merging (avg -48%)",
		[]platform.Mode{platform.KSM}, noInputs(Figure7)),
	one("fig8", "Figure 8: jhash vs ECC-based hash key comparison outcomes", nil, noInputs(Figure8)),
	one("table4", "Table 4: KSM configuration characterization",
		[]platform.Mode{platform.Baseline, platform.KSM}, noInputs(Table4)),
	latencyFigure("fig9", "Figure 9: mean sojourn latency (Baseline/KSM/PageForge)", (*LatencyResult).Figure9),
	latencyFigure("fig10", "Figure 10: 95th percentile latency", (*LatencyResult).Figure10),
	one("fig11", "Figure 11: memory bandwidth in the dedup-intensive phase", AllModes(), noInputs(Figure11)),
	one("table5", "Table 5: PageForge timing, area, and power",
		[]platform.Mode{platform.PageForge}, noInputs(Table5)),
	one("latency", "Demand-access latency distribution (mean/p50/p95/p99/max cycles)", AllModes(), noInputs(DemandLatency)),
	one("satori", "Extension: short-lived sharing capture vs scan aggressiveness (Satori, §7.2)", nil, noInputs(Satori)),
	perApp("timeline", "Extension: savings convergence ramp, KSM vs PageForge", Timeline),
	perApp("sweep", "§2.1 tunables: sleep_millisecs × pages_to_scan vs savings and kthread core cost", Sweep),
	one("ras", "Extension: DRAM fault rate vs merge coverage, scrub/retry overhead, degradation", nil,
		func(s *Suite, in Inputs) (*RASResult, error) { return RAS(s, in.FaultRates) }),
	one("verify", "Model-based verification: randomized scenarios, invariant checker, KSM≡PageForge differential", nil,
		func(s *Suite, in Inputs) (*VerifyResult, error) { return Verify(s, in.VerifyN) }),
	one("pressure", "Robustness: overcommit storm vs graceful OOM, ballooning, backpressure, degradation ladder", nil,
		func(s *Suite, in Inputs) (*PressureResult, error) { return Pressure(s, in.Overcommit) }),
	one("crash", "Robustness: host crash x checkpoint interval vs verified recovery, replay cost, bit-identity", nil,
		func(s *Suite, in Inputs) (*CrashResult, error) { return Crash(s, in.CrashPasses, in.CkptEvery) }),
	one("efficiency", "Observability: scan-budget attribution (ledger causes), convergence speed, zero-perturbation proof", nil,
		noInputs(Efficiency)),
	one("stream", "Runtime: tick-driven streaming runs — config-scheduled ≡ live-injected event equivalence per world shape", nil,
		noInputs(Stream)),
}
