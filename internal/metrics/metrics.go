// Package metrics implements the paper's two performance metrics — Page
// Load Time (PLT, connectEnd to onload, Sec. 2.2) and SpeedIndex (the
// integral of visual incompleteness over time, computed here from the
// browser model's paint timeline instead of a captured video) — plus the
// summary statistics used throughout the evaluation: medians, standard
// errors, confidence intervals and CDFs.
package metrics

import (
	"math"
	"slices"
	"time"
)

// ProgressPoint is one step of the visual progress curve: at time T the
// above-the-fold content is Fraction (0..1) complete.
type ProgressPoint struct {
	T        time.Duration
	Fraction float64
}

// SpeedIndex integrates 1-completeness over the progress curve, returning
// the result in the same unit WebPagetest reports (milliseconds). The
// curve must be sorted by time with non-decreasing fractions; the first
// visual change defines the start of visible progress and the curve is
// considered complete at the last point (fraction 1).
//
// If the curve is empty or never reaches a positive fraction, fallback is
// returned (the paper effectively falls back to load time for pages
// without measurable visual progress).
func SpeedIndex(curve []ProgressPoint, fallback time.Duration) time.Duration {
	if len(curve) == 0 {
		return fallback
	}
	anyVisible := false
	for _, p := range curve {
		if p.Fraction > 0 {
			anyVisible = true
			break
		}
	}
	if !anyVisible {
		return fallback
	}
	var si float64 // in nanoseconds
	prevT := time.Duration(0)
	prevF := 0.0
	for _, p := range curve {
		if p.T < prevT {
			prevT = p.T // defensive: unordered input
		}
		si += (1 - prevF) * float64(p.T-prevT)
		prevT = p.T
		prevF = p.Fraction
	}
	// If the final fraction is below 1, the page never completed
	// visually; charge the remaining incompleteness up to the fallback
	// horizon (conservative, mirrors WebPagetest's visually-complete
	// requirement).
	if prevF < 1 && fallback > prevT {
		si += (1 - prevF) * float64(fallback-prevT)
	}
	return time.Duration(si)
}

// Sample is a collection of repeated measurements of one scalar metric
// (e.g. PLT over 31 runs of a site). Appending via Add keeps a cached
// sorted view valid lazily: the first quantile query after a batch of
// Adds sorts once, and every further Median call reuses the cache
// instead of copying and re-sorting per call.
type Sample struct {
	Values []time.Duration

	// sortedVals caches the sorted copy of Values; valid while
	// sortedN == len(Values). Mutating Values directly bypasses the
	// cache — use Add, or re-slice and Add afresh.
	sortedVals []time.Duration
	sortedN    int

	// Compacted state (see Compact): the exact summary statistics are
	// frozen, the raw values are released, and quantile queries fall
	// back to the sketch's relative-error answers.
	sketch     *Sketch
	compactN   int
	compMedian time.Duration
	compMean   time.Duration
	compStd    time.Duration
}

// Compact freezes the sample's summary statistics and releases the raw
// values, dropping per-sample memory to O(sketch buckets). N, Median,
// Mean, Std, StdErr and CI are computed exactly before the values are
// freed and keep returning the exact answers; the values' distribution
// survives in a mergeable Sketch, whose quantiles are accurate to
// SketchRelativeError of the exact value (a relative-error bound, not
// a rank-error bound). Adding to a compacted sample panics. Compact on
// an already-compacted sample is a no-op.
func (s *Sample) Compact() {
	if s.sketch != nil {
		return
	}
	// Order matters: the exact statistics must be computed while the
	// raw values are still alive.
	s.compactN = len(s.Values)
	s.compMedian = s.Median()
	s.compMean = s.Mean()
	s.compStd = s.std()
	sk := &Sketch{}
	for _, v := range s.Values {
		sk.Add(v)
	}
	s.Values = nil
	s.sortedVals = nil
	s.sortedN = 0
	s.sketch = sk
}

// Compacted reports whether Compact has released the raw values.
func (s *Sample) Compacted() bool { return s.sketch != nil }

// Add appends a measurement, invalidating the sorted cache.
func (s *Sample) Add(v time.Duration) {
	if s.sketch != nil {
		panic("metrics: Add on a compacted Sample")
	}
	s.Values = append(s.Values, v)
	s.sortedN = -1
}

// N returns the number of measurements.
func (s *Sample) N() int {
	if s.sketch != nil {
		return s.compactN
	}
	return len(s.Values)
}

func (s *Sample) sorted() []time.Duration {
	if s.sortedN == len(s.Values) && s.sortedVals != nil {
		return s.sortedVals
	}
	s.sortedVals = append(s.sortedVals[:0], s.Values...)
	slices.Sort(s.sortedVals)
	s.sortedN = len(s.Values)
	return s.sortedVals
}

// Median returns the sample median (the paper reports medians of 31
// runs). Exact, including after Compact (it is frozen there).
func (s *Sample) Median() time.Duration {
	if s.sketch != nil {
		return s.compMedian
	}
	if len(s.Values) == 0 {
		return 0
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// Mean returns the arithmetic mean. Exact, including after Compact.
func (s *Sample) Mean() time.Duration {
	if s.sketch != nil {
		return s.compMean
	}
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(s.Values)))
}

// std returns the sample standard deviation (n-1). Exact, including
// after Compact.
func (s *Sample) std() time.Duration {
	if s.sketch != nil {
		return s.compStd
	}
	n := len(s.Values)
	if n < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var ss float64
	for _, v := range s.Values {
		d := float64(v) - mean
		ss += d * d
	}
	return time.Duration(math.Sqrt(ss / float64(n-1)))
}

// StdErr returns the standard error of the mean, σx̄ = s/√n — the
// quantity Fig. 2(a) plots per site. Exact, including after Compact.
func (s *Sample) StdErr() time.Duration {
	n := s.N()
	if n < 2 {
		return 0
	}
	return time.Duration(float64(s.std()) / math.Sqrt(float64(n)))
}

// CI returns the half-width of the two-sided confidence interval of the
// mean at the given level (e.g. 0.95 or 0.995), using the normal
// approximation (n=31 in the paper, where t and z differ by <4%).
func (s *Sample) CI(level float64) time.Duration {
	z := zQuantile(0.5 + level/2)
	return time.Duration(z * float64(s.StdErr()))
}

// zQuantile approximates the standard normal quantile function using the
// Beasley-Springer-Moro rational approximation.
func zQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p <= 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	pl, ph := 0.02425, 1-0.02425
	switch {
	case p < pl:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > ph:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// median returns the median of xs without mutating it, averaging the
// middle pair for even-length input (same convention as Sample.Median).
// It returns 0 for an empty slice, so experiment drivers stay safe on
// empty result sets instead of panicking like the old
// CDF(xs)[len(xs)/2] idiom.
func median[T interface{ ~int64 | ~float64 }](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MedianInt64 returns the empty-safe median of xs (median semantics
// above).
func MedianInt64(xs []int64) int64 { return median(xs) }

// MedianFloat64 returns the empty-safe median of xs (median semantics
// above).
func MedianFloat64(xs []float64) float64 { return median(xs) }

// FractionBelow returns the fraction of xs strictly below threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// RelChange returns (with-against)/against as a signed fraction; negative
// means an improvement when smaller-is-better (the paper's Δ<0).
func RelChange(with, against time.Duration) float64 {
	if against == 0 {
		return 0
	}
	return float64(with-against) / float64(against)
}
