package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
)

// TestMain lets the multiprocess executor re-exec this test binary as a
// shard worker (core.multiprocess_* in the traced run), and moves to the
// repository root: the harness addresses BENCHMARK.json, ./cmd/pushbench
// and bench/out from there.
func TestMain(m *testing.M) {
	core.MaybeServeWorker()
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 12.5, 11}, 10, 11, 12.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 || median(tc.xs) != tc.med {
			t.Errorf("%v: q1 %v median %v q3 %v, want %v %v %v", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestHiPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{{1, 50}, {19, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: hiPercentile must not rely on order
		}
		pct, v := hiPercentile(xs)
		if pct != tc.pct {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, pct, tc.pct)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if pct > 50 && beyond < 10 {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", tc.n, pct, v, beyond)
		}
	}
}

func series(better string, bound float64, values ...float64) *metricSeries {
	s := &metricSeries{metricSpec: metricSpec{Name: "m", Unit: "u", Better: better, Bound: bound}, Values: values}
	s.Median = median(values)
	s.Q1, s.Q3 = quartiles(values)
	return s
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change *metricSeries
		want           string
	}{
		{"within bound", series("lower", 0.1, 100), series("lower", 0.1, 105), verdictOK},
		{"lower-is-better got higher", series("lower", 0.1, 100), series("lower", 0.1, 115), verdictRegressed},
		{"lower-is-better got lower", series("lower", 0.1, 100), series("lower", 0.1, 80), verdictImproved},
		{"higher-is-better got lower", series("higher", 0.1, 100), series("higher", 0.1, 85), verdictRegressed},
		{"higher-is-better got higher", series("higher", 0.1, 100), series("higher", 0.1, 120), verdictImproved},
		{"tight runs, clear regression", series("lower", 0.1, 99, 100, 101), series("lower", 0.1, 119, 120, 121), verdictRegressed},
		{"wide overlapping runs decide nothing", series("lower", 0.1, 80, 100, 130), series("lower", 0.1, 90, 125, 140), verdictUnresolved},
		{"wide but disjoint runs, worse", series("lower", 0.1, 80, 100, 130), series("lower", 0.1, 140, 170, 200), verdictRegressed},
		{"wide but disjoint runs, better", series("lower", 0.1, 80, 100, 130), series("lower", 0.1, 40, 60, 75), verdictImproved},
	} {
		if got, _ := verdict(tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func specNames(ms []metricSpec) []string {
	out := names(ms)
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s:\n emitted %v\n declared %v", what, got, want)
	}
}

// TestSpecShape pins the parts of BENCHMARK.json's contract the harness
// depends on or promises.
func TestSpecShape(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sameNames(t, "workloads", have, declared)

	maxBound, setupBound := 0.0, -1.0
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == mSetup {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better; is %s, %s", m.Unit, m.Better)
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}

// TestWorkloadsOneIteration runs one iteration of every workload at its
// real size: the output must equal the set-up reference (Jobs: 1 for the
// parallel sweeps, the in-process driver for the CLI) and no load may
// fail. The two workloads that are cheap enough go through measure, so
// the metrics emitted are checked against the ones declared.
func TestWorkloadsOneIteration(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if w.name != "pageload-warm" && w.name != "cli-cold" {
				inst, err := w.setup(1, corpusSeed)
				if err != nil {
					t.Fatal(err)
				}
				d, failed, err := inst.iterate()
				if err != nil {
					t.Fatal(err)
				}
				if inst.reference == nil || d != *inst.reference || failed != 0 {
					t.Errorf("output %s, reference %v, %d of %d loads failed", hexDigest(d), inst.reference, failed, inst.loads)
				}
				return
			}
			r, err := measure(w, runOpts{seed: 1, iterations: 1, setupRounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("correct=%v failed=%d of %d: %v", r.Correct, r.Failed, r.Attempted, r.Notes)
			}
			if r.Iterations != 1 || r.Attempted != r.loadsPerIter+1 {
				t.Errorf("iterations=%d attempted=%d, want 1 and %d", r.Iterations, r.Attempted, r.loadsPerIter+1)
			}
			var emitted []string
			for name, v := range r.Metrics {
				emitted = append(emitted, name)
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive finite number", name, v)
				}
			}
			sameNames(t, "end-to-end metrics", emitted, specNames(spec.EndToEnd))
		})
	}
}

// TestTracedRun runs the per-layer measurements at their smallest size:
// every declared per-layer metric is emitted and no undeclared one is,
// the composed loads equal RunOnceWith (tracedLoads fails otherwise),
// and the trace file is Chrome trace-event JSON.
func TestTracedRun(t *testing.T) {
	t.Parallel()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("pageload-warm")
	diag, err := measure(w, runOpts{seed: 1, iterations: 1, setupRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	layers, err := layerMetrics(quickEffort, 1, tracePath, diag)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []string
	for name, m := range layers {
		emitted = append(emitted, name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("%s = %v %q, want a finite number with a unit", name, m.Value, m.Unit)
		}
	}
	sameNames(t, "per-layer metrics", emitted, specNames(spec.PerLayer))
	for _, m := range spec.PerLayer {
		if got := layers[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: unit %q emitted, %q declared", m.Name, got, m.Unit)
		}
	}

	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	loads, runs := 0, 0
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete events", e.Name, e.Ph)
		}
		switch e.Name {
		case spanLoad:
			loads++
		case spanRun:
			runs++
			if e.Args["parent"] != spanLoad || e.Args["events"] == nil {
				t.Fatalf("sim.run span lacks its parent or event count: %v", e.Args)
			}
		}
	}
	if loads == 0 || loads != runs {
		t.Errorf("trace has %d load spans and %d sim.run spans", loads, runs)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: spanLoad, start: 0, end: 100, parent: -1},
		{name: spanRun, start: 10, end: 70, parent: 0},
		{name: spanResult, start: 70, end: 90, parent: 0},
	}}
	st := tr.stats()
	if len(st.selfLoad) != 1 || st.selfLoad[0] != (20*1e-9) {
		t.Errorf("self time %v, want 20ns: the load span minus its children", st.selfLoad)
	}
}

func TestResultLineKeys(t *testing.T) {
	run := &runResult{Correct: true, Attempted: 97, Failed: 0}
	line := resultLine([]*runResult{run}, func(string) (float64, string) { return 1.5, "ms" }, []string{"a", "b"})
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sameNames(t, "result line keys", keys, []string{"correct", "attempted", "failed", "metrics"})
}
