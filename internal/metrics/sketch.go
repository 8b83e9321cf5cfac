package metrics

import (
	"math"
	"time"
)

// Sketch is a mergeable quantile sketch over durations, DDSketch-style:
// values are binned into geometrically spaced buckets so any reported
// quantile is within a fixed *relative* error of the exact one (the
// bound is on the value, not on the rank). Bucket counts are plain
// integers, so MergeFrom is commutative and associative — merging
// worker sketches in any order yields bit-identical state, which is
// what keeps population tables byte-identical at any worker-pool size.
// Memory is O(buckets) regardless of how many values were added: a
// sweep over 10^6 loads costs the same few kilobytes as one over 10.
//
// The zero Sketch is ready to use. Accuracy is fixed at
// SketchRelativeError; values <= 0 collapse into a dedicated zero
// bucket and report as 0. Min and max are tracked exactly, so the 0-
// and 1-quantiles are exact.
//
//repolint:pooled
type Sketch struct {
	// counts is the dense bucket array: counts[j] is the number of
	// values v with index(v) == base+j, where bucket i covers
	// (gamma^(i-1), gamma^i].
	counts []int64
	base   int
	zero   int64 // values <= 0
	n      int64
	min    time.Duration
	max    time.Duration
}

// SketchRelativeError is the sketch's accuracy guarantee: every
// quantile it reports is within this fraction of the exact quantile
// value (nearest-rank convention).
const SketchRelativeError = 0.01

// sketchGamma is (1+a)/(1-a) for a = SketchRelativeError: bucket i
// covers (gamma^(i-1), gamma^i] and its representative value
// 2*gamma^i/(gamma+1) is within a of every value in the bucket.
const sketchGamma = (1 + SketchRelativeError) / (1 - SketchRelativeError)

var sketchLogGamma = math.Log(sketchGamma)

// sketchIndex returns the bucket index for a positive value.
//
//repolint:hotpath
func sketchIndex(v time.Duration) int {
	return int(math.Ceil(math.Log(float64(v)) / sketchLogGamma))
}

// Add records one value.
//
//repolint:hotpath
func (k *Sketch) Add(v time.Duration) {
	if k.n == 0 || v < k.min {
		k.min = v
	}
	if k.n == 0 || v > k.max {
		k.max = v
	}
	k.n++
	if v <= 0 {
		k.zero++
		return
	}
	idx := sketchIndex(v)
	switch {
	case len(k.counts) == 0:
		k.base = idx
		k.counts = append(k.counts, 0)
	case idx < k.base:
		// Grow the dense array downward to cover the new low bucket.
		shift := k.base - idx
		old := len(k.counts)
		k.counts = append(k.counts, make([]int64, shift)...)
		copy(k.counts[shift:], k.counts[:old])
		for j := 0; j < shift; j++ {
			k.counts[j] = 0
		}
		k.base = idx
	default:
		for idx-k.base >= len(k.counts) {
			k.counts = append(k.counts, 0)
		}
	}
	k.counts[idx-k.base]++
}

// MergeFrom folds o into k. Merging is pure integer addition on
// aligned buckets, so it is commutative and associative: any merge
// order over any partition of the input values yields identical state.
// o is not modified.
func (k *Sketch) MergeFrom(o *Sketch) {
	if o.n == 0 {
		return
	}
	if k.n == 0 || o.min < k.min {
		k.min = o.min
	}
	if k.n == 0 || o.max > k.max {
		k.max = o.max
	}
	k.n += o.n
	k.zero += o.zero
	if len(o.counts) == 0 {
		return
	}
	switch {
	case len(k.counts) == 0:
		k.base = o.base
		k.counts = append(k.counts[:0], o.counts...)
		return
	case o.base < k.base:
		shift := k.base - o.base
		old := len(k.counts)
		k.counts = append(k.counts, make([]int64, shift)...)
		copy(k.counts[shift:], k.counts[:old])
		for j := 0; j < shift; j++ {
			k.counts[j] = 0
		}
		k.base = o.base
	}
	for (o.base+len(o.counts))-k.base > len(k.counts) {
		k.counts = append(k.counts, 0)
	}
	off := o.base - k.base
	for j, c := range o.counts {
		k.counts[off+j] += c
	}
}

// Quantile returns the p-quantile (0 <= p <= 1) by nearest rank on the
// added values, accurate to
// SketchRelativeError of the exact value. p <= 0 and p >= 1 return the
// exact min and max.
func (k *Sketch) Quantile(p float64) time.Duration {
	if k.n == 0 {
		return 0
	}
	switch {
	case p <= 0:
		return k.min
	case p >= 1:
		return k.max
	}
	rank := int64(p * float64(k.n))
	if rank >= k.n {
		rank = k.n - 1
	}
	if rank < k.zero {
		return 0
	}
	cum := k.zero
	for j, c := range k.counts {
		cum += c
		if rank < cum {
			v := time.Duration(math.Round(math.Pow(sketchGamma, float64(k.base+j)) * 2 / (sketchGamma + 1)))
			// The representative can stick out past the observed extremes
			// (bucket edges are value-independent); the exact min/max are
			// tighter bounds on any order statistic.
			if v < k.min {
				v = k.min
			}
			if v > k.max {
				v = k.max
			}
			return v
		}
	}
	return k.max
}

// Reset empties the sketch, keeping the bucket array's capacity.
func (k *Sketch) Reset() {
	clear(k.counts)
	k.counts = k.counts[:0]
	k.base = 0
	k.zero = 0
	k.n = 0
	k.min = 0
	k.max = 0
}
