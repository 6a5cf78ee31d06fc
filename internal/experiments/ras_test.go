package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/platform"
)

func TestRASSweepShape(t *testing.T) {
	s := NewFastSuite()
	r, err := RAS(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(DefaultRASRates()) {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	// The fault-free anchor has full coverage and must actually merge the
	// duplicated block; every harder rate keeps (at most) that coverage.
	if r.Rows[0].CoveragePct != 100 || r.Rows[0].Merged == 0 {
		t.Fatalf("anchor row: %+v", r.Rows[0])
	}
	for i := 1; i < len(r.Rows); i++ {
		prev, cur := r.Rows[i-1], r.Rows[i]
		if cur.Rate <= prev.Rate {
			t.Fatalf("rates not increasing at %d", i)
		}
		if cur.CoveragePct > prev.CoveragePct+1e-9 {
			t.Fatalf("coverage not monotone: %.1f%% at %g after %.1f%% at %g",
				cur.CoveragePct, cur.Rate, prev.CoveragePct, prev.Rate)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	if last.CoveragePct >= 10 {
		t.Fatalf("always-UE coverage %.1f%%, want collapse below 10%%", last.CoveragePct)
	}
	if last.DegradeInterval < 0 {
		t.Fatal("always-UE run never hit the degradation trip point")
	}
	if last.FaultAborts == 0 || last.Quarantined == 0 {
		t.Fatalf("always-UE row missing fault activity: %+v", last)
	}
	// Mid-rate rows show the RAS machinery paying for itself: retries that
	// healed, and scrub traffic present in the bandwidth mix.
	var healedSomewhere, scrubSomewhere bool
	for _, row := range r.Rows[1:] {
		if row.RetriesHealed > 0 {
			healedSomewhere = true
		}
		if row.ScrubPct > 0 {
			scrubSomewhere = true
		}
	}
	if !healedSomewhere {
		t.Fatal("no rate produced healed retries")
	}
	if !scrubSomewhere {
		t.Fatal("no rate recorded scrub bandwidth")
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestRASSweepDeterminism(t *testing.T) {
	a, err := RAS(NewFastSuite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RAS(NewFastSuite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep not deterministic:\n%v\n%v", a, b)
	}
}

func TestRASRateValidation(t *testing.T) {
	for _, rate := range []float64{2, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RAS(NewFastSuite(), []float64{0, rate}); err == nil {
			t.Errorf("rate %g accepted", rate)
		}
	}
}

// TestFaultedSuiteParallelDeterminism verifies the suite-level guarantee
// survives fault injection: with a fault model attached, the parallel and
// sequential (mode × app) matrices are bit-identical.
func TestFaultedSuiteParallelDeterminism(t *testing.T) {
	build := func(par int) *Suite {
		s := NewFastSuite()
		s.Cfg.ConvergePasses = 4
		s.Cfg.MeasureIntervals = 4
		s.Apps = s.Apps[:2]
		s.Cfg.Faults = faults.Config{Seed: 11, TransientPerRead: 0.02, DoubleBitPerRead: 0.002}
		s.Parallelism = par
		return s
	}
	seq, par := build(1), build(4)
	if err := seq.RunAll(platform.PageForge); err != nil {
		t.Fatal(err)
	}
	if err := par.RunAll(platform.PageForge); err != nil {
		t.Fatal(err)
	}
	for _, app := range seq.Apps {
		a, err := seq.Result(platform.PageForge, app)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Result(platform.PageForge, app)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s diverged under parallel execution:\n%+v\n%+v", app.Name, a, b)
		}
	}
}
