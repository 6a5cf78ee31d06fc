package platform

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

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

// TestSeriesDeltasNeverWrap pins the series baseline across the
// measurement phase's statistics reset: each point's counter deltas count
// only its own window's events, so no delta exceeds the counter's final
// cumulative value. A baseline kept across the reset wraps the L3
// counters' drop to about 1.8e19 at "measure 8".
func TestSeriesDeltasNeverWrap(t *testing.T) {
	t.Parallel()
	app, cfg := fastApp("img_dnn"), fastConfig()
	cfg.Series = obs.NewSeries(0)
	res, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := cfg.Series.Track("KSM/" + app.Name).Points()
	if len(points) == 0 {
		t.Fatal("the track sampled no points")
	}
	for _, p := range points {
		for name, d := range p.Counters {
			if final := res.Metrics.Counters[name]; d > final {
				t.Errorf("%s %d: %s delta %d exceeds its final value %d", p.Phase, p.Index, name, d, final)
			}
		}
	}
}
