package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the sort-based reference: nearest-rank with the same
// target convention the histogram uses (rank q*n, 1-indexed cumulative).
func exactQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// maxRelErr is the histogram's accuracy contract: one bucket of 16
// sub-buckets per octave is 6.25% wide relative to its lower bound, plus
// interpolation slack against the nearest-rank reference.
const maxRelErr = 0.08

func checkQuantiles(t *testing.T, name string, xs []float64) {
	t.Helper()
	h := NewHistogram()
	for _, x := range xs {
		h.Add(x)
	}
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999} {
		got := h.Quantile(q)
		want := exactQuantile(xs, q)
		if want == 0 {
			if got > 1e-9 {
				t.Errorf("%s q=%g: got %g, want 0", name, q, got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > maxRelErr {
			t.Errorf("%s q=%g: got %g, exact %g (rel err %.3f > %.3f)", name, q, got, want, rel, maxRelErr)
		}
	}
	// Exact aggregates.
	var sum, mn, mx float64
	for i, x := range xs {
		sum += math.Max(x, 0)
		if i == 0 {
			mn, mx = x, x
		} else {
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
	}
	if h.N() != uint64(len(xs)) {
		t.Errorf("%s: N=%d want %d", name, h.N(), len(xs))
	}
	if len(xs) > 0 {
		if math.Abs(h.Mean()-sum/float64(len(xs))) > 1e-6*math.Abs(h.Mean())+1e-9 {
			t.Errorf("%s: mean %g want %g", name, h.Mean(), sum/float64(len(xs)))
		}
		if h.Min() != mn || h.Max() != mx {
			t.Errorf("%s: min/max %g/%g want %g/%g", name, h.Min(), h.Max(), mn, mx)
		}
	}
}

func TestQuantileRandomDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	uniform := make([]float64, 20000)
	for i := range uniform {
		uniform[i] = rng.Float64() * 1e6
	}
	checkQuantiles(t, "uniform", uniform)

	lognormal := make([]float64, 20000)
	for i := range lognormal {
		lognormal[i] = math.Exp(rng.NormFloat64()*1.5 + 5)
	}
	checkQuantiles(t, "lognormal", lognormal)

	// Latency-shaped: a hit mode plus a heavy miss tail (the demand-latency
	// stream the measurement phase feeds this histogram).
	latency := make([]float64, 20000)
	for i := range latency {
		if rng.Float64() < 0.7 {
			latency[i] = 20
		} else {
			latency[i] = 150 + rng.Float64()*400
		}
	}
	checkQuantiles(t, "latency", latency)
}

func TestQuantileAdversarialDistributions(t *testing.T) {
	// Constant stream: every quantile must be exactly the constant (the
	// min/max clamp guarantees it despite bucket width).
	constant := make([]float64, 1000)
	for i := range constant {
		constant[i] = 100
	}
	h := NewHistogram()
	for _, x := range constant {
		h.Add(x)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("constant q=%g: got %g want 100", q, got)
		}
	}
	if h.P95() < h.Mean() {
		t.Errorf("constant: p95 %g < mean %g", h.P95(), h.Mean())
	}

	// Two-point mass at bucket boundaries.
	twoPoint := make([]float64, 0, 2000)
	for i := 0; i < 1900; i++ {
		twoPoint = append(twoPoint, 64) // exact power of two: bucket lower bound
	}
	for i := 0; i < 100; i++ {
		twoPoint = append(twoPoint, 65536)
	}
	checkQuantiles(t, "two-point", twoPoint)

	// Values straddling every sub-bucket boundary of one octave.
	var boundary []float64
	for i := 0; i < subBuckets; i++ {
		v := math.Ldexp(0.5+float64(i)/(2*subBuckets), 10)
		boundary = append(boundary, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	checkQuantiles(t, "sub-bucket boundaries", boundary)

	// Zeros and negatives fold into the zero bucket and never panic.
	h2 := NewHistogram()
	for _, v := range []float64{0, -5, math.NaN(), 10, 10, 10} {
		h2.Add(v)
	}
	if h2.N() != 6 {
		t.Fatalf("N=%d want 6", h2.N())
	}
	if got := h2.Quantile(0.99); got != 10 {
		t.Errorf("q99 with zeros: got %g want 10", got)
	}
	if got := h2.Quantile(0.25); got != 0 { // the zero bucket
		t.Errorf("q25 with zeros: got %g want 0", got)
	}

	// Empty histogram.
	e := NewHistogram()
	if e.Quantile(0.95) != 0 || e.Mean() != 0 || e.N() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestQuantileMonotonicAndOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	for i := 0; i < 50000; i++ {
		h.Add(math.Exp(rng.NormFloat64() * 2))
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
	if !(h.P50() <= h.P95() && h.P95() <= h.P99() && h.P99() <= h.Max()) {
		t.Fatalf("ordering violated: p50=%g p95=%g p99=%g max=%g", h.P50(), h.P95(), h.P99(), h.Max())
	}
}

func TestHistogramSnapshotDiff(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Add(100)
	}
	before := h.Snapshot()
	for i := 0; i < 400; i++ {
		h.Add(1000)
	}
	diff := h.Snapshot().Diff(before)
	if diff.Count != 400 {
		t.Fatalf("diff count %d want 400", diff.Count)
	}
	// The window contains only the 1000s: its p50 must sit in their bucket.
	lo, hi := bucketBounds(bucketKey(1000))
	if diff.P50 < lo || diff.P50 > hi {
		t.Errorf("diff p50 %g outside window bucket [%g,%g)", diff.P50, lo, hi)
	}
	if diff.Sum != 400*1000 {
		t.Errorf("diff sum %g want 400000", diff.Sum)
	}
	var n uint64
	for _, b := range diff.Buckets {
		n += b.N
	}
	if n != 400 {
		t.Errorf("diff bucket mass %d want 400", n)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	h.Add(50)
	h.Reset()
	if h.N() != 0 || h.Mean() != 0 || h.Quantile(0.95) != 0 || len(h.Snapshot().Buckets) != 0 {
		t.Fatal("reset did not clear state")
	}
	h.Add(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatal("post-reset min/max wrong")
	}
}

// TestHistogramAddZeroAlloc pins the histogram's hot path: once every
// bucket an observation lands in exists, Add allocates nothing. Each
// measured run makes many calls because AllocsPerRun truncates its
// per-run average to an integer.
func TestHistogramAddZeroAlloc(t *testing.T) {
	h := NewHistogram()
	i := 0
	add := func() {
		for j := 0; j < 1000; j++ {
			h.Add(float64(i%600) - 10) // spans the zero bucket and ~600 cycles of latency
			i++
		}
	}
	add()
	if allocs := testing.AllocsPerRun(10, add); allocs != 0 {
		t.Errorf("warm Add made %v allocations per 1000 calls, want 0", allocs)
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Add(float64(20 + i%600))
	}
}

// TestQuantileEdgeCases pins the boundary behaviour of Quantile against the
// sort-based reference where the reference is defined, and against the
// documented contract (clamped to [Min, Max], monotone in q) where the
// reference's total order breaks down (NaN inputs).
func TestQuantileEdgeCases(t *testing.T) {
	qs := []float64{-1, 0, 0.001, 0.25, 0.5, 0.75, 0.999, 1, 2}

	t.Run("empty", func(t *testing.T) {
		h := NewHistogram()
		for _, q := range qs {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
			}
		}
	})

	t.Run("single-sample", func(t *testing.T) {
		for _, v := range []float64{0, 1e-9, 3.7, 1e12} {
			h := NewHistogram()
			h.Add(v)
			for _, q := range qs {
				if got, want := h.Quantile(q), exactQuantile([]float64{v}, q); got != want {
					t.Errorf("single(%g) Quantile(%g) = %g, want %g", v, q, got, want)
				}
			}
		}
	})

	t.Run("extremes-are-exact-min-max", func(t *testing.T) {
		h := NewHistogram()
		xs := []float64{5, 0.2, 19, 7, 0.9, 300}
		for _, x := range xs {
			h.Add(x)
		}
		for _, q := range []float64{-3, 0} {
			if got := h.Quantile(q); got != exactQuantile(xs, q) || got != h.Min() {
				t.Errorf("Quantile(%g) = %g, want exact min %g", q, got, h.Min())
			}
		}
		for _, q := range []float64{1, 1.5} {
			if got := h.Quantile(q); got != exactQuantile(xs, q) || got != h.Max() {
				t.Errorf("Quantile(%g) = %g, want exact max %g", q, got, h.Max())
			}
		}
	})

	t.Run("zero-mass", func(t *testing.T) {
		// Half the stream is exactly zero: quantiles inside the zero mass
		// must report 0 exactly, matching the reference.
		h := NewHistogram()
		var xs []float64
		for i := 0; i < 50; i++ {
			xs = append(xs, 0, float64(i+1))
		}
		for _, x := range xs {
			h.Add(x)
		}
		for _, q := range []float64{0.1, 0.3, 0.5} {
			if got, want := h.Quantile(q), exactQuantile(xs, q); got != want {
				t.Errorf("zero-mass Quantile(%g) = %g, want %g", q, got, want)
			}
		}
	})

	t.Run("negative-and-nan-fold", func(t *testing.T) {
		// Negative and NaN observations fold into the zero bucket. A total
		// order over the inputs no longer exists, so the contract is the
		// documented one: results stay within [Min, Max] (when those are
		// well-defined) and are monotone in q.
		h := NewHistogram()
		for _, x := range []float64{4, -2, 1, math.NaN(), 9, -7} {
			h.Add(x)
		}
		if h.Min() != -7 || h.Max() != 9 {
			t.Fatalf("min/max = %g/%g, want -7/9", h.Min(), h.Max())
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
			got := h.Quantile(q)
			if math.IsNaN(got) || got < h.Min() || got > h.Max() {
				t.Fatalf("Quantile(%g) = %g escapes [%g, %g]", q, got, h.Min(), h.Max())
			}
			if got < prev {
				t.Fatalf("Quantile not monotone: q=%g gives %g after %g", q, got, prev)
			}
			prev = got
		}
	})
}
