package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func ms(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

func TestSpeedIndexInstantPaint(t *testing.T) {
	// Everything visible at t=100ms: SI = 100ms.
	curve := []ProgressPoint{{ms(100), 1.0}}
	if got := SpeedIndex(curve, ms(500)); got != ms(100) {
		t.Fatalf("SI = %v, want 100ms", got)
	}
}

func TestSpeedIndexLinearProgress(t *testing.T) {
	// 0% until 100ms, 50% at 100ms, 100% at 200ms:
	// SI = 100ms*1 + 100ms*0.5 = 150ms.
	curve := []ProgressPoint{{ms(100), 0.5}, {ms(200), 1.0}}
	if got := SpeedIndex(curve, ms(500)); got != ms(150) {
		t.Fatalf("SI = %v, want 150ms", got)
	}
}

func TestSpeedIndexEarlierIsBetter(t *testing.T) {
	fast := []ProgressPoint{{ms(50), 0.8}, {ms(300), 1.0}}
	slow := []ProgressPoint{{ms(250), 0.8}, {ms(300), 1.0}}
	if SpeedIndex(fast, ms(400)) >= SpeedIndex(slow, ms(400)) {
		t.Fatal("earlier visual progress did not reduce SpeedIndex")
	}
}

func TestSpeedIndexEmptyFallback(t *testing.T) {
	if got := SpeedIndex(nil, ms(321)); got != ms(321) {
		t.Fatalf("SI fallback = %v", got)
	}
	if got := SpeedIndex([]ProgressPoint{{ms(10), 0}}, ms(321)); got != ms(321) {
		t.Fatalf("SI zero-progress fallback = %v", got)
	}
}

func TestSpeedIndexIncompleteChargedToHorizon(t *testing.T) {
	// 50% at 100ms, never finishes; horizon 300ms:
	// SI = 100 + 0.5*200 = 200ms.
	curve := []ProgressPoint{{ms(100), 0.5}}
	if got := SpeedIndex(curve, ms(300)); got != ms(200) {
		t.Fatalf("SI = %v, want 200ms", got)
	}
}

// Property: SpeedIndex lies between first-change time and the horizon.
func TestSpeedIndexBoundsProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		if len(steps) == 0 {
			return true
		}
		var curve []ProgressPoint
		t0 := time.Duration(0)
		for i, s := range steps {
			t0 += time.Duration(s%1000+1) * time.Millisecond
			f := float64(i+1) / float64(len(steps))
			curve = append(curve, ProgressPoint{t0, f})
		}
		horizon := t0 + time.Second
		si := SpeedIndex(curve, horizon)
		return si >= curve[0].T/2 && si <= horizon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	for _, v := range []float64{10, 20, 30, 40, 100} {
		s.Add(ms(v))
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Median(); got != ms(30) {
		t.Fatalf("median = %v", got)
	}
	if got := s.Mean(); got != ms(40) {
		t.Fatalf("mean = %v", got)
	}
	// std of {10,20,30,40,100} = sqrt(5050*... ) compute: mean 40,
	// deviations -30,-20,-10,0,60 → ss = 900+400+100+0+3600=5000,
	// var = 5000/4 = 1250, std ≈ 35.355ms.
	std := float64(s.std()) / float64(time.Millisecond)
	if math.Abs(std-35.355) > 0.01 {
		t.Fatalf("std = %v", std)
	}
	se := float64(s.StdErr()) / float64(time.Millisecond)
	if math.Abs(se-35.355/math.Sqrt(5)) > 0.01 {
		t.Fatalf("stderr = %v", se)
	}
}

func TestMedianEvenCount(t *testing.T) {
	var s Sample
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(ms(v))
	}
	if got := s.Median(); got != ms(25) {
		t.Fatalf("median = %v", got)
	}
}

func TestCIWidens(t *testing.T) {
	var s Sample
	for _, v := range []float64{100, 110, 90, 105, 95, 102, 98} {
		s.Add(ms(v))
	}
	ci95 := s.CI(0.95)
	ci995 := s.CI(0.995)
	if ci995 <= ci95 {
		t.Fatalf("99.5%% CI (%v) not wider than 95%% CI (%v)", ci995, ci95)
	}
	if ci95 <= 0 {
		t.Fatal("CI not positive")
	}
}

func TestZQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.975:  1.95996,
		0.9975: 2.80703,
		0.5:    0,
		0.025:  -1.95996,
	}
	for p, want := range cases {
		if got := zQuantile(p); math.Abs(got-want) > 0.001 {
			t.Errorf("z(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{-10, -5, 0, 5, 10}
	if got := FractionBelow(xs, 0); got != 0.4 {
		t.Fatalf("FractionBelow = %v", got)
	}
	if got := FractionBelow(nil, 0); got != 0 {
		t.Fatalf("FractionBelow(nil) = %v", got)
	}
}

func TestRelChange(t *testing.T) {
	if got := RelChange(ms(80), ms(100)); math.Abs(got+0.2) > 1e-9 {
		t.Fatalf("RelChange = %v, want -0.2", got)
	}
	if got := RelChange(ms(100), 0); got != 0 {
		t.Fatalf("RelChange vs 0 = %v", got)
	}
}

func TestSampleEmptySafe(t *testing.T) {
	var s Sample
	if s.Median() != 0 || s.Mean() != 0 || s.std() != 0 || s.StdErr() != 0 {
		t.Fatal("empty sample stats not zero")
	}
}

func TestMedianInt64(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{nil, 0},
		{[]int64{42}, 42},
		{[]int64{9, 1, 5}, 5},           // unsorted odd
		{[]int64{7, 1, 3, 9}, 5},        // unsorted even: (3+7)/2
		{[]int64{100, 2, 2, 2, 100}, 2}, // duplicates
	}
	for _, c := range cases {
		if got := MedianInt64(c.in); got != c.want {
			t.Errorf("MedianInt64(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// Input must not be mutated.
	in := []int64{3, 1, 2}
	MedianInt64(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestMedianFloat64(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, // empty input is safe, not a panic
		{[]float64{}, 0},
		{[]float64{3.5}, 3.5},
		{[]float64{9, 1, 5}, 5},    // unsorted odd
		{[]float64{7, 1, 3, 9}, 5}, // unsorted even: (3+7)/2
		{[]float64{-4, -1, -9, 2}, -2.5},
	}
	for _, c := range cases {
		if got := MedianFloat64(c.in); got != c.want {
			t.Errorf("MedianFloat64(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	MedianFloat64(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestSampleSortedCacheInvalidation(t *testing.T) {
	var s Sample
	for _, v := range []time.Duration{30, 10, 20} {
		s.Add(v)
	}
	if got := s.Median(); got != 20 {
		t.Fatalf("median = %v, want 20", got)
	}
	// The cached sorted view must not leak into Values or go stale.
	if got := s.sorted()[0]; got != 10 {
		t.Fatalf("p0 = %v, want 10", got)
	}
	s.Add(5)
	if got := s.Median(); got != 15 {
		t.Fatalf("median after Add = %v, want 15", got)
	}
	if got := s.sorted()[3]; got != 30 {
		t.Fatalf("p100 = %v, want 30", got)
	}
	if got := s.sorted()[0]; got != 5 {
		t.Fatalf("min after Add = %v, want 5", got)
	}
	if s.Values[0] != 30 || s.Values[3] != 5 {
		t.Fatalf("Values reordered by quantile calls: %v", s.Values)
	}
}
