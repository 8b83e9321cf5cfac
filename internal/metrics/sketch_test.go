package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sketchTol is the test tolerance on relative error: the guarantee is
// SketchRelativeError; the slack covers float rounding in the
// representative-value computation.
const sketchTol = SketchRelativeError * 1.05

func relErr(got, want time.Duration) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(got-want)) / float64(want)
}

// TestSketchQuantileRelativeError is the accuracy property test: on
// random data spanning microseconds to minutes, every sketch quantile
// must be within the advertised relative error of the exact
// nearest-rank quantile of the same values.
func TestSketchQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var s Sample
		var k Sketch
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Log-uniform across 6 decades, the range PLTs and
			// SpeedIndexes actually span.
			v := time.Duration(math.Exp(rng.Float64()*math.Log(1e12)) * 1e3)
			s.Add(v)
			k.Add(v)
		}
		for _, p := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			exact := nearestRank(&s, p)
			got := k.Quantile(p)
			if e := relErr(got, exact); e > sketchTol {
				t.Fatalf("trial %d p=%g: sketch %v vs exact %v (rel err %.4f > %.4f)",
					trial, p, got, exact, e, sketchTol)
			}
		}
	}
}

// nearestRank is the exact p-quantile (0 <= p <= 1) of s's values by
// nearest rank, the convention Sketch.Quantile approximates.
func nearestRank(s *Sample, p float64) time.Duration {
	v := s.sorted()
	return v[min(int(p*float64(len(v))), len(v)-1)]
}

// TestSketchExactExtremes: p=0 and p=1 are exact, not bucket
// representatives.
func TestSketchExactExtremes(t *testing.T) {
	var k Sketch
	vals := []time.Duration{17 * time.Millisecond, 3 * time.Second, 999 * time.Microsecond}
	for _, v := range vals {
		k.Add(v)
	}
	if got := k.Quantile(0); got != 999*time.Microsecond {
		t.Fatalf("p0 = %v, want exact min", got)
	}
	if got := k.Quantile(1); got != 3*time.Second {
		t.Fatalf("p1 = %v, want exact max", got)
	}
	if k.min != 999*time.Microsecond || k.max != 3*time.Second {
		t.Fatalf("Min/Max = %v/%v", k.min, k.max)
	}
}

// TestSketchZeroBucket: non-positive values collapse to the zero
// bucket and rank correctly below everything positive.
func TestSketchZeroBucket(t *testing.T) {
	var k Sketch
	k.Add(0)
	k.Add(0)
	k.Add(time.Second)
	k.Add(2 * time.Second)
	if got := k.Quantile(0.25); got != 0 {
		t.Fatalf("p25 = %v, want 0 (zero bucket)", got)
	}
	if got := k.Quantile(0.75); relErr(got, 2*time.Second) > sketchTol {
		t.Fatalf("p75 = %v, want ~2s", got)
	}
	if k.n != 4 {
		t.Fatalf("N = %d", k.n)
	}
}

// TestSketchMergeOrderInvariant is the determinism property the
// population engine rests on: merging per-worker sketches in any
// permutation and any association must produce bit-identical quantile
// answers, because a different -jobs value shuffles which worker
// absorbed which runs.
func TestSketchMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const parts = 6
	shards := make([]*Sketch, parts)
	for i := range shards {
		shards[i] = &Sketch{}
		for j := 0; j < 50+rng.Intn(200); j++ {
			shards[i].Add(time.Duration(1e3 + rng.Int63n(1e11)))
		}
	}
	quantiles := func(k *Sketch) []time.Duration {
		var qs []time.Duration
		for p := 0.0; p <= 1.0; p += 0.01 {
			qs = append(qs, k.Quantile(p))
		}
		return qs
	}
	merge := func(order []int, pairwise bool) []time.Duration {
		if pairwise {
			// Tree-shaped association: merge pairs, then merge the pair
			// results, exercising associativity rather than just
			// left-fold commutativity.
			var tier []*Sketch
			for i := 0; i < len(order); i += 2 {
				m := &Sketch{}
				m.MergeFrom(shards[order[i]])
				if i+1 < len(order) {
					m.MergeFrom(shards[order[i+1]])
				}
				tier = append(tier, m)
			}
			total := &Sketch{}
			for _, m := range tier {
				total.MergeFrom(m)
			}
			return quantiles(total)
		}
		total := &Sketch{}
		for _, i := range order {
			total.MergeFrom(shards[i])
		}
		return quantiles(total)
	}
	want := merge([]int{0, 1, 2, 3, 4, 5}, false)
	cases := [][]int{
		{5, 4, 3, 2, 1, 0},
		{2, 0, 5, 1, 4, 3},
		{3, 5, 1, 0, 2, 4},
	}
	for _, order := range cases {
		for _, pairwise := range []bool{false, true} {
			got := merge(order, pairwise)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order %v pairwise=%v: quantile %d = %v, want %v",
						order, pairwise, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSketchMergeEmpty: merging with empty sketches on either side is
// the identity.
func TestSketchMergeEmpty(t *testing.T) {
	var a, b Sketch
	a.Add(time.Second)
	a.MergeFrom(&b) // empty rhs
	if a.n != 1 || a.Quantile(0.5) == 0 {
		t.Fatalf("merge with empty changed state: n=%d", a.n)
	}
	b.MergeFrom(&a) // empty lhs
	if b.n != 1 {
		t.Fatalf("empty lhs merge: n=%d", b.n)
	}
	if got, want := b.Quantile(0.5), a.Quantile(0.5); got != want {
		t.Fatalf("merged quantile %v != source %v", got, want)
	}
}

// TestSketchReset: a reset sketch behaves like a fresh one (pooled
// contract) while keeping bucket capacity.
func TestSketchReset(t *testing.T) {
	var k Sketch
	for i := 1; i <= 100; i++ {
		k.Add(time.Duration(i) * time.Millisecond)
	}
	k.Reset()
	if k.n != 0 || k.Quantile(0.5) != 0 || k.min != 0 || k.max != 0 {
		t.Fatalf("reset sketch not empty: n=%d", k.n)
	}
	k.Add(5 * time.Millisecond)
	if got := k.Quantile(0.5); relErr(got, 5*time.Millisecond) > sketchTol {
		t.Fatalf("post-reset quantile %v", got)
	}
}

// TestSampleCompactExactStats: Compact must freeze N/Median/Mean/Std/
// StdErr/CI at their exact pre-compaction values — the golden-pinned
// tables consume only these.
func TestSampleCompactExactStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Sample
	for i := 0; i < 31; i++ {
		s.Add(time.Duration(1e6 + rng.Int63n(5e9)))
	}
	n, med, mean := s.N(), s.Median(), s.Mean()
	std, serr, ci := s.std(), s.StdErr(), s.CI(0.95)
	p95 := nearestRank(&s, 0.95)
	s.Compact()
	if !s.Compacted() {
		t.Fatal("not compacted")
	}
	if s.Values != nil {
		t.Fatal("Compact must release the raw values")
	}
	if s.N() != n || s.Median() != med || s.Mean() != mean ||
		s.std() != std || s.StdErr() != serr || s.CI(0.95) != ci {
		t.Fatalf("exact stats changed across Compact")
	}
	if e := relErr(s.sketch.Quantile(0.95), p95); e > sketchTol {
		t.Fatalf("post-compact p95 rel err %.4f", e)
	}
	s.Compact() // idempotent
	if s.N() != n {
		t.Fatal("second Compact changed state")
	}
}

// TestSampleCompactAddPanics: the sample is frozen after Compact.
func TestSampleCompactAddPanics(t *testing.T) {
	var s Sample
	s.Add(time.Second)
	s.Compact()
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Compact must panic")
		}
	}()
	s.Add(time.Second)
}
