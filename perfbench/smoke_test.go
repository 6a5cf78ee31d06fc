package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
)

// shrink cuts a workload to test size while keeping its mode, events and
// liveness conditions.
func (w *workload) shrink() {
	w.cfg.VMs, w.cfg.Cores = 4, 4
	w.app.PagesPerVM = 96
	if w.app.BurstPagesPerVM > 0 {
		w.app.BurstPagesPerVM = 48
		w.cfg.Events = churnEvents(w.cfg.ConvergePasses, 2)
	}
	w.cfg.MeasureIntervals = 4
	if w.mode == platform.Baseline {
		w.cfg.MeasureIntervals = 24
	}
	w.minQueries = 200
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// TestSmoke runs every workload at tiny size, untraced and traced, and checks
// that the result line carries exactly the declared metrics with their
// units and that the notes print each of them for a reader.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			w, err := newWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			w.shrink()
			rep, err := bench(w, options{trace: traced, traceDir: t.TempDir(), seed: 3})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var out bytes.Buffer
			if err := writeReport(&out, name, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
				if !strings.Contains(out.String(), m+" ") {
					t.Errorf("%s traced=%v: %s not printed in the notes", name, traced, m)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("nope", 1); err == nil {
		t.Fatal("want an error for an unknown workload")
	}
}

func TestLiveness(t *testing.T) {
	pf, _ := newWorkload("pf-merge", 1)
	if pf.live(counters{}, 3) == nil {
		t.Error("pf-merge passed with no lines fetched")
	}
	ksm, _ := newWorkload("ksm-churn", 1)
	if ksm.live(counters{}, 19) == nil {
		t.Error("ksm-churn passed with 19 convergence ticks")
	}
	if ksm.live(counters{"memctrl/pf_fetches": 1}, 21) == nil {
		t.Error("ksm-churn passed with a PageForge fetch")
	}
	base, _ := newWorkload("baseline-traffic", 1)
	if base.live(counters{"dram/accesses/ksm": 5}, 0) == nil {
		t.Error("baseline-traffic passed with KSM DRAM traffic")
	}
	if err := base.live(counters{"dram/accesses/core": 5, "memctrl/demand_reads": 9}, 0); err != nil {
		t.Errorf("baseline-traffic failed on demand traffic only: %v", err)
	}
}

func TestDigestBook(t *testing.T) {
	var book digestBook
	if err := json.Unmarshal(digestsJSON, &book); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{book.ReferenceSeed, book.HeldOutSeed} {
		for _, name := range workloadNames {
			if d := book.lookup(seed, name); len(d) != 64 {
				t.Errorf("seed %d %s: digest %q", seed, name, d)
			}
		}
	}
	if book.lookup(2, "pf-merge") != "" {
		t.Error("seed 2 has a digest; only the reference and held-out seeds are recorded")
	}
}

func TestCheckRejectsDigestMismatch(t *testing.T) {
	w, _ := newWorkload("pf-merge", 1)
	x := &op{digest: "aa", res: &platform.Result{Metrics: &obs.Snapshot{
		Counters: map[string]uint64{"pageforge/lines_fetched": 1}}}}
	if err := check(w, options{}, x, ""); err != nil {
		t.Fatalf("clean op failed: %v", err)
	}
	if check(w, options{recorded: "bb"}, x, "") == nil {
		t.Error("passed against a different recorded digest")
	}
	if check(w, options{}, x, "bb") == nil {
		t.Error("passed against a different first digest")
	}
}
