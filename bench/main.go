// Command bench is the repository's benchmark: five closed-loop,
// fixed-work workloads driven through the public API of internal/core
// and cmd/pushbench, measured in host time, with their outputs checked
// and every metric printed by name and unit. BENCHMARK.json at the
// repository root is its contract; README.md in this directory explains
// every workload, metric and bound.
//
//	go run ./bench                              # every workload, end to end
//	go run ./bench -workload sweep-paper -count 5
//	go run ./bench -trace 1                     # per-layer metrics + bench/out/trace.json
//	go run ./bench -compare old.json new.json   # verdict per workload x metric
//	go run ./bench -selfcheck                   # two sets of runs must agree
//
// The benchmark driver runs
// `go run ./bench --workload W --seed N --seconds S --trace 0|1` and
// reads the last line of standard output, a JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/core"
)

func main() {
	// The multiprocess executor re-execs this binary as a shard worker
	// (core.multiprocess_* in the traced run); that must win before any
	// flag is parsed.
	core.MaybeServeWorker()
	os.Exit(run())
}

// options are the harness's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	count    int
	out      string
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five; the traced run diagnoses pageload-warm)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long each run's measured loop iterates (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics, bench/out/trace.json) instead of the end-to-end one")
	flag.IntVar(&o.count, "count", 1, "runs per workload; medians and quartiles in the record are over these")
	flag.StringVar(&o.out, "out", filepath.Join(outDir, "record.json"), "where the record is written")
	compare := flag.Bool("compare", false, "compare two records: -compare parent.json change.json")
	selfcheck := flag.Bool("selfcheck", false, "run the set twice and fail unless every end-to-end metric agrees within its bound")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		return fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare takes two records: parent.json change.json"))
		}
		parent, err := readRecord(flag.Arg(0))
		if err != nil {
			return fatal(err)
		}
		change, err := readRecord(flag.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if compareRecords(os.Stdout, parent, change) {
			return 1
		}
		return 0
	case *selfcheck:
		return runSelfcheck(spec, o)
	case o.trace != 0:
		return runTraced(spec, o)
	}
	rec, ok, err := runEndToEnd(spec, o)
	if err != nil {
		return fatal(err)
	}
	if err := rec.write(o.out); err != nil {
		return fatal(err)
	}
	fmt.Printf("record written to %s\n", o.out)
	if o.workload != "" {
		printResultLine(rec.Workloads[0].Runs, func(name string) (float64, string) {
			s := rec.Workloads[0].Metrics[name]
			return s.Median, s.Unit
		}, names(spec.EndToEnd))
	}
	if !ok {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// selected resolves -workload to the workloads to run.
func selected(name string) ([]workload, error) {
	if name == "" {
		return workloads, nil
	}
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []workload{w}, nil
}

// runEndToEnd measures the selected workloads with tracing off and
// prints every end-to-end metric. ok is false when any output was wrong
// or any operation failed.
//
// A run is one process: corpus generation, site preparation and the
// analysis memos are process-wide, so a second run in the same process
// would time a warm set-up. A single run (what the driver asks for) is
// measured here; several are each handed to a child of their own.
func runEndToEnd(spec *benchSpec, o options) (rec *record, ok bool, err error) {
	ws, err := selected(o.workload)
	if err != nil {
		return nil, false, err
	}
	rec = newRecord(o.seed, o.seconds, o.count)
	ok = true
	for _, w := range ws {
		var runs []*runResult
		for i := 0; i < o.count; i++ {
			seed := o.seed + int64(i)
			var r *runResult
			if len(ws)*o.count == 1 {
				r, err = measure(w, runOpts{seed: seed, seconds: o.seconds, setupRounds: w.setupRounds})
			} else {
				r, err = measureInChild(w, seed, o.seconds)
			}
			if err != nil {
				return nil, false, err
			}
			ok = ok && r.Correct && r.Failed == 0
			runs = append(runs, r)
		}
		printEndToEnd(os.Stdout, spec, rec.addRuns(spec, w, runs))
	}
	return rec, ok, nil
}

// measureInChild performs one run of w in a fresh process — this binary
// again, asked for a single run — and reads the run back from the
// record the child wrote.
func measureInChild(w workload, seed int64, seconds float64) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", w.name, seed))
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", out)
	cmd.Stderr = os.Stderr
	// Exit status 1 is a run that completed but was incorrect; its record
	// says why. Anything else left no record worth reading.
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, fmt.Errorf("%s: child run: %w", w.name, err)
	}
	child, err := readRecord(out)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(out); err != nil {
		return nil, err
	}
	wr := child.workload(w.name)
	if wr == nil || len(wr.Runs) != 1 {
		return nil, fmt.Errorf("%s: child record %s does not hold exactly one run", w.name, out)
	}
	wr.Runs[0].loadsPerIter = wr.LoadsPerIteration
	return wr.Runs[0], nil
}

// runTraced is the separate traced run: a short untraced run of one
// workload for the bench.* diagnostics, then every per-layer
// measurement, the composed-load trace included.
func runTraced(spec *benchSpec, o options) int {
	if o.workload == "" {
		o.workload = "pageload-warm"
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	diag, err := measure(w, runOpts{seed: o.seed, seconds: o.seconds / 4, setupRounds: 1})
	if err != nil {
		return fatal(err)
	}
	tracePath := filepath.Join(outDir, "trace.json")
	layers, err := layerMetrics(fullEffort, o.seed, tracePath, diag)
	if err != nil {
		return fatal(err)
	}
	for _, m := range spec.PerLayer {
		if v, ok := layers[m.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fatal(fmt.Errorf("per-layer metric %s: measured %v, want a finite number", m.Name, v.Value))
		}
	}
	rec := newRecord(o.seed, o.seconds, 1)
	rec.addRuns(spec, w, []*runResult{diag})
	rec.PerLayer, rec.Diagnosed, rec.TraceFile = layers, w.name, tracePath
	if err := rec.write(o.out); err != nil {
		return fatal(err)
	}
	for _, m := range spec.PerLayer {
		fmt.Printf("%-40s %14.6g %s\n", m.Name, layers[m.Name].Value, m.Unit)
	}
	fmt.Printf("trace written to %s, record to %s\n", tracePath, o.out)
	printResultLine([]*runResult{diag}, func(name string) (float64, string) {
		return layers[name].Value, layers[name].Unit
	}, names(spec.PerLayer))
	if !diag.Correct || diag.Failed != 0 {
		return 1
	}
	return 0
}

// runSelfcheck measures the full set twice on the same build and fails
// unless the two agree within every metric's own bound.
func runSelfcheck(spec *benchSpec, o options) int {
	var sets [2]*record
	for i := range sets {
		fmt.Printf("== selfcheck set %d of 2\n", i+1)
		rec, ok, err := runEndToEnd(spec, o)
		if err != nil {
			return fatal(err)
		}
		if !ok {
			fmt.Println("selfcheck: FAIL, a run was incorrect or had failed operations")
			return 1
		}
		sets[i] = rec
		if err := rec.write(filepath.Join(outDir, fmt.Sprintf("selfcheck-%d.json", i+1))); err != nil {
			return fatal(err)
		}
	}
	offending := agreement(sets[0], sets[1])
	for _, line := range offending {
		fmt.Println("selfcheck: disagree:", line)
	}
	if len(offending) > 0 {
		fmt.Printf("selfcheck: FAIL, %d workload x metric pairs outside their bound\n", len(offending))
		return 1
	}
	fmt.Println("selfcheck: PASS, every end-to-end metric on every workload agrees within its bound")
	return 0
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// printResultLine prints the one JSON object the benchmark driver reads
// from the last line of standard output.
func printResultLine(runs []*runResult, value func(name string) (float64, string), metricNames []string) {
	fmt.Println(string(resultLine(runs, value, metricNames)))
}

func resultLine(runs []*runResult, value func(name string) (float64, string), metricNames []string) []byte {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range runs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	for _, name := range metricNames {
		v, unit := value(name)
		line.Metrics[name] = metric{Value: v, Unit: unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // callers pass finite values; those and strings always marshal
	}
	return b
}
