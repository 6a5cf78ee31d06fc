package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(len(s), p)
	return s[i], len(s) - 1 - i
}

func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(i, n-1))
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile of n samples with at
// least minBeyond samples beyond it, falling back to the median when n is too
// small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-1-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// ratio divides num by den; ok is false when den is zero, so the caller
// reports the ratio as absent instead of as 0 or NaN.
func ratio(num, den float64) (v float64, ok bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// list renders xs with the given number of decimals, space-separated.
func list(xs []float64, decimals int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', decimals, 64)
	}
	return strings.Join(parts, " ")
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
