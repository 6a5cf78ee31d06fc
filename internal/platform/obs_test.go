package platform

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestTraceDisabledBitIdentical is the observability layer's core
// guarantee: attaching a tracer never perturbs the simulation. The traced
// and untraced runs must agree on every Result field — including the full
// metrics snapshot, which DeepEqual follows through the pointer.
func TestTraceDisabledBitIdentical(t *testing.T) {
	t.Parallel()
	app := fastApp("silo")
	plain, err := Run(PageForge, app, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Trace = obs.NewTracer(obs.DefaultTraceCapacity)
	traced, err := Run(PageForge, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Len() == 0 {
		t.Fatal("tracer attached but no events recorded")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing perturbed the run:\n%+v\n%+v", plain, traced)
	}
}

// TestTracePressureBitIdentical extends the non-perturbation guarantee to
// the memory-pressure machinery: an overcommit storm emits burst, balloon,
// and ladder-transition instants, and the pressure counters land in the
// metrics snapshot, yet the traced run must stay deeply equal to the
// untraced one — stalls, transitions, and all.
func TestTracePressureBitIdentical(t *testing.T) {
	t.Parallel()
	app, cfg := stormConfig(7)
	plain, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app2, cfg2 := stormConfig(7)
	cfg2.Trace = obs.NewTracer(obs.DefaultTraceCapacity)
	traced, err := Run(KSM, app2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Trace.Len() == 0 {
		t.Fatal("tracer attached but no events recorded")
	}
	if plain.Metrics.Counters["pressure/alloc_stalls"] == 0 {
		t.Fatal("storm recorded no pressure counters")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing perturbed the pressured run:\n%+v\n%+v", plain, traced)
	}
}

// TestTracePerfettoShape checks the exported trace against the Chrome
// trace_event contract Perfetto loads: a traceEvents array of objects that
// each carry ph/pid/tid/ts, with complete ('X') events adding a dur.
func TestTracePerfettoShape(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Trace = obs.NewTracer(obs.DefaultTraceCapacity)
	if _, err := Run(PageForge, fastApp("img_dnn"), cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	if doc.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	var complete, instant int
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event %d missing ph: %v", i, ev)
		}
		for _, key := range []string{"pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %s: %v", i, key, ev)
			}
		}
		switch ph {
		case "X":
			complete++
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event %d missing ts: %v", i, ev)
			}
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("complete event %d bad dur: %v", i, ev)
			}
		case "i":
			instant++
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("instant event %d scope %q, want thread", i, s)
			}
		case "M":
			// metadata: process/thread names
		default:
			t.Fatalf("event %d unexpected phase %q", i, ph)
		}
	}
	if complete == 0 || instant == 0 {
		t.Fatalf("trace lacks phases: %d complete, %d instant", complete, instant)
	}
}

// TestDemandLatencyQuantiles pins the acceptance criterion on a real run:
// the measured demand-latency distribution is ordered (p50 <= p95 <= p99
// <= max) and right-skewed enough that p95 sits at or above the mean.
func TestDemandLatencyQuantiles(t *testing.T) {
	t.Parallel()
	res, err := Run(PageForge, fastApp("silo"), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.DemandLatP50 <= 0 {
		t.Fatal("no p50 measured")
	}
	if res.DemandLatP50 > res.DemandLatP95 || res.DemandLatP95 > res.DemandLatP99 ||
		res.DemandLatP99 > res.DemandLatMax {
		t.Fatalf("quantiles out of order: p50=%g p95=%g p99=%g max=%g",
			res.DemandLatP50, res.DemandLatP95, res.DemandLatP99, res.DemandLatMax)
	}
	if res.DemandLatP95 < res.AvgDemandLatency {
		t.Fatalf("p95 %g below mean %g", res.DemandLatP95, res.AvgDemandLatency)
	}
}

// TestMetricsSnapshotDeterminism repeats a run and requires the full
// registry snapshot — every counter, gauge, and histogram — to match.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	t.Parallel()
	app := fastApp("img_dnn")
	a, err := Run(PageForge, app, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(PageForge, app, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics == nil || b.Metrics == nil {
		t.Fatal("run produced no metrics snapshot")
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatal("metrics snapshots diverged between identical runs")
	}
	if len(a.Metrics.Counters) == 0 {
		t.Fatal("snapshot has no counters")
	}
	for _, name := range []string{
		"memctrl/demand_reads", "dram/reads", "cache/l3_hits",
		"ksm/pages_scanned", "pageforge/lines_fetched", "pageforge/batches",
	} {
		if _, ok := a.Metrics.Counters[name]; !ok {
			t.Fatalf("snapshot missing %s", name)
		}
	}
}
