package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// specPath is the benchmark's contract, at the root of the checkout the
// harness runs from.
const specPath = "BENCHMARK.json"

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json: the names, units, directions and
// regression bounds the harness reports against.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("%w (run the harness from the repository root)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &spec, nil
}

func (s *benchSpec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// recordSchema versions the record layout below; bump it on any change
// a reader of old records would trip over.
const recordSchema = 1

// record is the one versioned shape every run of the harness writes.
type record struct {
	Schema     int     `json:"schema"`
	Commit     string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Count      int     `json:"count"`

	Workloads []*workloadRecord `json:"workloads"`

	// PerLayer is present when the run was traced; Diagnosed names the
	// workload its bench.* diagnostics describe, TraceFile the span dump.
	PerLayer  layerSet `json:"per_layer,omitempty"`
	Diagnosed string   `json:"diagnosed_workload,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

// workloadRecord is one workload's runs and what they reduce to.
type workloadRecord struct {
	Name              string                   `json:"name"`
	Why               string                   `json:"why"`
	Clients           string                   `json:"clients"`
	LoadsPerIteration int                      `json:"loads_per_iteration"`
	Metrics           map[string]*metricSeries `json:"metrics"`
	Runs              []*runResult             `json:"runs"`
}

// metricSeries is one end-to-end metric over a workload's runs.
type metricSeries struct {
	metricSpec
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newRecord(seed int64, seconds float64, count int) *record {
	return &record{
		Schema:     recordSchema,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Count:      count,
	}
}

// gitCommit names the measured commit when the checkout is a git
// repository; the driver's checkouts are not.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// addRuns folds a workload's runs into the record.
func (r *record) addRuns(spec *benchSpec, w workload, runs []*runResult) *workloadRecord {
	wr := &workloadRecord{
		Name:              w.name,
		Why:               spec.why(w.name),
		Clients:           w.clients,
		LoadsPerIteration: runs[0].loadsPerIter,
		Metrics:           map[string]*metricSeries{},
		Runs:              runs,
	}
	for _, m := range spec.EndToEnd {
		s := &metricSeries{metricSpec: m}
		for _, run := range runs {
			s.Values = append(s.Values, run.Metrics[m.Name])
		}
		s.Median = median(s.Values)
		s.Q1, s.Q3 = quartiles(s.Values)
		wr.Metrics[m.Name] = s
	}
	r.Workloads = append(r.Workloads, wr)
	return wr
}

func (r *record) workload(name string) *workloadRecord {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func (r *record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != recordSchema {
		return nil, fmt.Errorf("%s: record schema %d, this harness reads schema %d", path, r.Schema, recordSchema)
	}
	return &r, nil
}

// printEndToEnd prints every end-to-end metric of wr by name and unit.
func printEndToEnd(w io.Writer, spec *benchSpec, wr *workloadRecord) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, m := range spec.EndToEnd {
		s := wr.Metrics[m.Name]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t(%s is better, bound %.3g%%", wr.Name, m.Name, s.Median, m.Unit, m.Better, m.Bound*100)
		if len(s.Values) > 1 {
			fmt.Fprintf(tw, ", q1 %.6g q3 %.6g over %d runs", s.Q1, s.Q3, len(s.Values))
		}
		fmt.Fprintln(tw, ")")
	}
	tw.Flush()
	for _, run := range wr.Runs {
		fmt.Fprintf(w, "%s\trun seed %d: %d iterations of %d loads, median %.4gs (q1 %.4g q3 %.4g, p%g %.4g), %d/%d ops failed, output %s\n",
			wr.Name, run.Seed, run.Iterations, wr.LoadsPerIteration, run.IterMedianS, run.IterQ1S, run.IterQ3S,
			run.IterHiPct, run.IterHiS, run.Failed, run.Attempted, run.OutputSHA256[:16])
		for _, n := range run.Notes {
			fmt.Fprintf(w, "%s\tINCORRECT: %s\n", wr.Name, n)
		}
	}
}

// --- compare ---

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// verdict judges a change's series against its parent's. worse is the
// relative move of the median in the metric's bad direction. When the
// run-to-run spread is wider than the bound the medians alone decide
// nothing: only disjoint ranges resolve the comparison.
func verdict(parent, change *metricSeries) (v string, worse float64) {
	worse = (change.Median - parent.Median) / math.Abs(parent.Median)
	if parent.Better == "higher" {
		worse = -worse
	}
	spread := math.Max(parent.Q3-parent.Q1, change.Q3-change.Q1) / math.Abs(parent.Median)
	if spread > parent.Bound {
		pLo, pHi := minMax(parent.Values)
		cLo, cHi := minMax(change.Values)
		if cLo <= pHi && pLo <= cHi {
			return verdictUnresolved, worse
		}
		if worse > 0 {
			return verdictRegressed, worse
		}
		return verdictImproved, worse
	}
	switch {
	case worse > parent.Bound:
		return verdictRegressed, worse
	case worse < -parent.Bound:
		return verdictImproved, worse
	}
	return verdictOK, worse
}

// compareRecords prints one row per workload x end-to-end metric — no
// combined score — and reports whether anything regressed.
func compareRecords(w io.Writer, parent, change *record) (regressed bool) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tworse by\tbound\tverdict")
	for _, pw := range parent.Workloads {
		cw := change.workload(pw.Name)
		if cw == nil {
			fmt.Fprintf(tw, "%s\t-\t-\tmissing\t-\t-\t%s\n", pw.Name, verdictRegressed)
			regressed = true
			continue
		}
		for _, name := range sortedKeys(pw.Metrics) {
			p, c := pw.Metrics[name], cw.Metrics[name]
			if c == nil {
				fmt.Fprintf(tw, "%s\t%s\t-\tmissing\t-\t-\t%s\n", pw.Name, name, verdictRegressed)
				regressed = true
				continue
			}
			v, worse := verdict(p, c)
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g] %s\t%.6g [%.6g, %.6g] %s\t%+.2f%%\t%.3g%%\t%s\n",
				pw.Name, name, p.Median, p.Q1, p.Q3, p.Unit, c.Median, c.Q1, c.Q3, c.Unit, worse*100, p.Bound*100, v)
		}
		if pd, cd := pw.Runs[0].OutputSHA256, cw.Runs[0].OutputSHA256; pd != cd && pw.Runs[0].Seed == cw.Runs[0].Seed {
			fmt.Fprintf(tw, "%s\toutput_sha256\t%s\t%s\t-\t-\tchanged: not a speed-only change\n", pw.Name, pd[:16], cd[:16])
		}
	}
	tw.Flush()
	return regressed
}

// agreement lists the workload x metric pairs on which two sets of runs
// of the same build differ by more than the metric's own bound.
func agreement(a, b *record) (offending []string) {
	for _, aw := range a.Workloads {
		bw := b.workload(aw.Name)
		for _, name := range sortedKeys(aw.Metrics) {
			am, bm := aw.Metrics[name], bw.Metrics[name]
			diff := math.Abs(bm.Median-am.Median) / math.Abs(am.Median)
			if diff > am.Bound {
				offending = append(offending, fmt.Sprintf("%s %s: %.6g vs %.6g %s differ by %.2f%%, bound %.3g%%",
					aw.Name, name, am.Median, bm.Median, am.Unit, diff*100, am.Bound*100))
			}
		}
	}
	return offending
}

func sortedKeys(m map[string]*metricSeries) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
