package sim

import (
	"math"
	"sort"
)

// Online accumulates streaming mean and variance (Welford's algorithm)
// without retaining samples. Used for high-volume counters such as
// per-access latencies.
type Online struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a sample into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N reports the number of samples.
func (o *Online) N() uint64 { return o.n }

// Mean reports the sample mean (0 when empty).
func (o *Online) Mean() float64 { return o.mean }

// Min reports the smallest sample (0 when empty).
func (o *Online) Min() float64 { return o.min }

// Max reports the largest sample (0 when empty).
func (o *Online) Max() float64 { return o.max }

// Var reports the sample variance (0 with fewer than 2 samples).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Stddev reports the sample standard deviation.
func (o *Online) Stddev() float64 { return math.Sqrt(o.Var()) }

// Reset discards all accumulated state.
func (o *Online) Reset() { *o = Online{} }

// Sample retains every observation so exact percentiles can be reported.
// Latency distributions in the paper are characterized by their mean and
// 95th percentile; tail accuracy matters, so no sketching is used.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a collector with capacity preallocated for hint samples.
func NewSample(hint int) *Sample {
	return &Sample{xs: make([]float64, 0, hint)}
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean reports the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Empty collectors report 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// P95 reports the 95th percentile, the paper's tail-latency metric.
func (s *Sample) P95() float64 { return s.Percentile(95) }

// Max reports the largest observation (0 when empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Reset discards all observations but keeps the backing array.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
}
