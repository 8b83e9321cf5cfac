package main

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// End-to-end metric names, as BENCHMARK.json lists them.
const (
	mLoadsPerS  = "loads_per_s"
	mCPUPerLoad = "cpu_ms_per_load"
	mAllocs     = "allocs_per_load"
	mAllocKB    = "alloc_kb_per_load"
	mSetup      = "setup_s"
	mOpsOK      = "ops_ok_share"
)

const (
	// minIterations is the fewest measured iterations a run accepts,
	// however short -seconds is.
	minIterations = 3
	// allocProbeCalls is how often an allocation probe is called; its
	// allocations are averaged over the calls.
	allocProbeCalls = 5
)

// runOpts sizes one measured run.
type runOpts struct {
	seed int64
	// seconds is how long the measured loop iterates. iterations, when
	// positive, replaces it with a fixed count (the tier-1 test runs one).
	seconds    float64
	iterations int
	// setupRounds is how many times set-up is performed and timed; the
	// last round's instance is the one measured.
	setupRounds int
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Seed         int64     `json:"seed"`
	Iterations   int       `json:"iterations"`
	IterSeconds  []float64 `json:"iter_seconds"`
	IterCPUS     []float64 `json:"iter_cpu_seconds"`
	IterMedianS  float64   `json:"iter_median_s"`
	IterQ1S      float64   `json:"iter_q1_s"`
	IterQ3S      float64   `json:"iter_q3_s"`
	IterHiPct    float64   `json:"iter_hi_percentile"`
	IterHiS      float64   `json:"iter_hi_s"`
	SetupSeconds []float64 `json:"setup_seconds"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	Correct      bool      `json:"correct"`
	OutputSHA256 string    `json:"output_sha256"`
	Notes        []string  `json:"notes,omitempty"`

	// Metrics are the end-to-end metrics by name.
	Metrics map[string]float64 `json:"metrics"`
	// Diag are the ungated harness diagnostics (bench.* in the traced run).
	Diag layerSet `json:"diagnostics"`

	loadsPerIter int
}

// roundCorpus is the corpus seed of set-up round k: every round
// generates a corpus of its own (the generator memoises per seed, so a
// repeated one would time a cache hit), and the last round — the one
// the measured loop uses — gets corpusSeed. The corpora, and so the work
// of every round, are the same in every run.
func roundCorpus(k, rounds int) int64 {
	return corpusSeed + int64(rounds-1-k)*1_000_003
}

// measure sets w up, warms it, iterates it for the configured time and
// reduces the observations to the end-to-end metrics.
func measure(w workload, o runOpts) (*runResult, error) {
	res := &runResult{Seed: o.seed, Correct: true, Metrics: map[string]float64{}, Diag: layerSet{}}
	var (
		inst *instance
		ref  digest
	)
	for k := 0; k < o.setupRounds; k++ {
		t0 := time.Now()
		var err error
		if inst, err = w.setup(o.seed, roundCorpus(k, o.setupRounds)); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		warm, _, err := inst.iterate()
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up iteration: %w", w.name, err)
		}
		res.SetupSeconds = append(res.SetupSeconds, time.Since(t0).Seconds())
		ref = warm
		if inst.reference != nil {
			ref = *inst.reference
			if warm != ref {
				res.fail("warm-up output %s differs from the set-up reference %s", hexDigest(warm), hexDigest(ref))
			}
		}
	}
	res.loadsPerIter = inst.loads
	res.OutputSHA256 = hexDigest(ref)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	failedLoads, failedIters := 0, 0
	start := time.Now()
	for {
		if o.iterations > 0 {
			if len(res.IterSeconds) >= o.iterations {
				break
			}
		} else if len(res.IterSeconds) >= minIterations && time.Since(start).Seconds() >= o.seconds {
			break
		}
		c0, t0 := cpuSeconds(inst.children), time.Now()
		d, failed, err := inst.iterate()
		res.IterSeconds = append(res.IterSeconds, time.Since(t0).Seconds())
		res.IterCPUS = append(res.IterCPUS, cpuSeconds(inst.children)-c0)
		failedLoads += failed
		switch {
		case err != nil:
			failedIters++
			res.fail("iteration %d: %v", len(res.IterSeconds), err)
		case d != ref:
			failedIters++
			res.fail("iteration %d: output %s differs from the reference %s", len(res.IterSeconds), hexDigest(d), hexDigest(ref))
		}
	}
	runtime.ReadMemStats(&m1)

	res.Iterations = len(res.IterSeconds)
	allocLoads := float64(res.Iterations * inst.loads)
	if inst.allocProbe != nil {
		runtime.ReadMemStats(&m0)
		for i := 0; i < allocProbeCalls; i++ {
			if err := inst.allocProbe(); err != nil {
				return nil, fmt.Errorf("%s: allocation probe: %w", w.name, err)
			}
		}
		runtime.ReadMemStats(&m1)
		allocLoads = float64(allocProbeCalls * inst.loads)
	}
	if failedLoads > 0 {
		res.fail("%d loads did not complete", failedLoads)
	}
	res.Attempted = res.Iterations*inst.loads + res.Iterations
	res.Failed = failedLoads + failedIters

	res.IterMedianS = median(res.IterSeconds)
	res.IterQ1S, res.IterQ3S = quartiles(res.IterSeconds)
	res.IterHiPct, res.IterHiS = hiPercentile(res.IterSeconds)

	// Throughput and CPU are taken at the run's best iteration, not its
	// median: every iteration does the same work, and on a shared machine
	// interference (here: neighbours on the memory system) only ever adds
	// time, in episodes that can outlast a run. Over repeated ten-run sets
	// the best iteration spread least in the bad sets, where it matters.
	// The median, quartiles and tail stay in the record.
	bestS, _ := minMax(res.IterSeconds)
	bestCPU, _ := minMax(res.IterCPUS)
	res.Metrics[mLoadsPerS] = float64(inst.loads) / bestS
	res.Metrics[mCPUPerLoad] = bestCPU * 1e3 / float64(inst.loads)
	res.Metrics[mAllocs] = float64(m1.Mallocs-m0.Mallocs) / allocLoads
	res.Metrics[mAllocKB] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / allocLoads
	res.Metrics[mSetup] = median(res.SetupSeconds)
	res.Metrics[mOpsOK] = 1 - float64(res.Failed)/float64(res.Attempted)

	res.Diag.put("bench.iter_hi_ms", res.IterHiS*1e3, "ms")
	res.Diag.put("bench.peak_rss_mb", peakRSSMB(), "MB")
	res.Diag.put("bench.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	res.Diag.put("bench.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	return res, nil
}

// fail records why the run is not correct. Only the first few reasons
// are kept: a broken build fails every iteration the same way.
func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Notes) < 5 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

func hexDigest(d digest) string { return hex.EncodeToString(d[:]) }

// cpuSeconds is the user+system CPU this process has used, plus that of
// its reaped children when asked.
func cpuSeconds(children bool) float64 {
	total := rusageSeconds(syscall.RUSAGE_SELF)
	if children {
		total += rusageSeconds(syscall.RUSAGE_CHILDREN)
	}
	return total
}

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM);
// zero where /proc does not offer it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
