package main

import (
	"testing"
	"time"
)

func TestRatioZeroBase(t *testing.T) {
	if v, ok := ratio(3, 0); ok || v != 0 {
		t.Errorf("ratio(3, 0) = %v, %v; want absent", v, ok)
	}
	if v, ok := ratio(0, 0); ok || v != 0 {
		t.Errorf("ratio(0, 0) = %v, %v; want absent", v, ok)
	}
	if v, ok := ratio(0, 4); !ok || v != 0 {
		t.Errorf("ratio(0, 4) = %v, %v; want 0, present", v, ok)
	}
	if v, ok := ratio(3, 4); !ok || v != 0.75 {
		t.Errorf("ratio(3, 4) = %v, %v; want 0.75", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}, {0, 1, 99}} {
		v, b := percentile(xs, c.p)
		if v != c.want || b != c.beyond {
			t.Errorf("p%g = %v with %d beyond, want %v with %d", c.p, v, b, c.want, c.beyond)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50},    // too few for any tail: the median
		{52, 75},   // pf-merge: 3 convergence + 49 measurement ticks
		{70, 75},   // ksm-churn
		{1008, 99}, // baseline-traffic
		{20000, 99.9},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, p, c.want)
		}
		if p != 50 && c.n-1-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d beyond", c.n, p, minBeyond)
		}
	}
}

func TestSecondsAndSum(t *testing.T) {
	ds := []time.Duration{time.Second, 500 * time.Millisecond}
	if got := sum(ds); got != 1500*time.Millisecond {
		t.Errorf("sum = %v", got)
	}
	if got := seconds(ds); got[0] != 1 || got[1] != 0.5 {
		t.Errorf("seconds = %v", got)
	}
}
