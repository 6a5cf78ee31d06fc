package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOnlineMoments(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N = %d, want 8", o.N())
	}
	if o.Mean() != 5 {
		t.Fatalf("Mean = %g, want 5", o.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if math.Abs(o.Var()-32.0/7) > 1e-12 {
		t.Fatalf("Var = %g, want %g", o.Var(), 32.0/7)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g, want 2/9", o.Min(), o.Max())
	}
}

func TestOnlineEmptyAndReset(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.Stddev() != 0 {
		t.Fatal("empty Online must report zeros")
	}
	o.Add(5)
	o.Reset()
	if o.N() != 0 || o.Mean() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestOnlineMatchesDirectComputation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		var o Online
		for i := range xs {
			xs[i] = r.Float64()*100 - 50
			o.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		v := 0.0
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n - 1)
		return math.Abs(o.Mean()-mean) < 1e-9 && math.Abs(o.Var()-v) < 1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %g, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %g, want 100", got)
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("P50 = %g, want 50.5", got)
	}
	if got := s.P95(); math.Abs(got-95.05) > 1e-9 {
		t.Errorf("P95 = %g, want 95.05", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %g, want 50.5", got)
	}
	if got := s.Max(); got != 100 {
		t.Errorf("Max = %g, want 100", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(4)
	if s.Percentile(95) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty Sample must report zeros")
	}
}

func TestSampleAddAfterSortStaysCorrect(t *testing.T) {
	s := NewSample(0)
	s.Add(10)
	_ = s.Percentile(50) // forces a sort
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("min after post-sort Add = %g, want 1", got)
	}
}

func TestSamplePercentileMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		s := NewSample(0)
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(r.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
