package main

import (
	"math"
	"sort"
)

// The harness keeps its own statistics rather than borrowing
// internal/metrics': the program under test must be able to change
// without moving the benchmark's arithmetic.

// median returns the middle of xs (mean of the two middle values for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// because that is what the driver that gates this benchmark computes.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// hiPercentiles is the ladder hiPercentile picks from.
var hiPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// hiPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it, and its value (nearest rank). With
// fewer than twenty samples only the median qualifies.
func hiPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 50, math.NaN()
	}
	// rank is the nearest-rank position of percentile p; the epsilon
	// keeps products like 99.9*10000/100 from rounding up a rank.
	rank := func(p float64) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }
	pct = 50
	for _, p := range hiPercentiles {
		if n-rank(p) >= 10 {
			pct = p
		}
	}
	if pct == 50 {
		return 50, median(xs)
	}
	return pct, sorted(xs)[rank(pct)-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
