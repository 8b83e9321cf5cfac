package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

// digest is the SHA-256 of one iteration's observable output.
type digest [sha256.Size]byte

// workload is one closed-loop, single-client, fixed-work benchmark
// input. Set-up builds an instance; the measured loop then calls
// instance.iterate back to back from one goroutine (the program under
// test may fan out to at most GOMAXPROCS workers inside a call).
//
// The two inputs of set-up are kept apart on purpose. corpus seeds the
// generated sites, which fix how much work a load is: measured across
// ten corpus seeds, loads/s and allocations per load spread 16-25 %, far
// outside any useful regression bound, so the measured corpus is always
// corpusSeed and only set-up timing rounds use others. seed draws what
// can vary at equal work: the links' round-trip time (see rttFactor)
// and, where the harness builds the testbed itself, the per-run jitter
// seeds.
type workload struct {
	name string
	// clients states the load generator's shape for the record.
	clients string
	// setupRounds is how often a run sets the workload up so that setup_s
	// is a median: three times where a round takes seconds, nine where it
	// takes a fraction of one and a single sample is mostly noise.
	setupRounds int
	setup       func(seed, corpus int64) (*instance, error)
}

// corpusSeed generates the sites every measured loop runs on. It is the
// seed cmd/pushbench uses, so cli-cold's children see the same sites.
const corpusSeed = 1

// rttFactor maps the seed to a scale in [0.95, 1.05) applied to every
// link's round-trip time: enough to move every simulated timestamp and
// table, too little to change how many segments, frames and events a
// load takes.
func rttFactor(seed int64) float64 {
	return 0.95 + 0.1*rand.New(rand.NewSource(seed)).Float64()
}

func scaleRTT(d time.Duration, seed int64) time.Duration {
	return time.Duration(float64(d) * rttFactor(seed)).Round(time.Microsecond)
}

// seededScenarios resolves library scenarios and applies the seed.
func seededScenarios(names []string, seed int64) ([]scenario.Scenario, error) {
	scs := make([]scenario.Scenario, len(names))
	for i, name := range names {
		sc, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		sc.Profile.RTT = scaleRTT(sc.Profile.RTT, seed)
		scs[i] = sc
	}
	return scs, nil
}

// instance is a set-up workload, ready to iterate.
type instance struct {
	// loads is the number of page loads one iteration simulates.
	loads int
	// iterate performs one iteration and returns the digest of its
	// output and the number of loads the harness saw fail.
	iterate func() (digest, int, error)
	// reference, when set, is a digest computed another way during
	// set-up (a Jobs: 1 run for the parallel sweeps, the in-process
	// driver for the CLI) that every iteration must reproduce. When
	// unset the warm-up iteration's digest is the reference.
	reference *digest
	// children marks a workload whose work happens in child processes,
	// so CPU is read from RUSAGE_CHILDREN too.
	children bool
	// allocProbe, when set, stands in for the MemStats delta of the
	// measured loop: the child processes' heaps are invisible, so the
	// probe runs the same driver in this process.
	allocProbe func() error
}

// enginePool is the client note of the workloads that call a sweep
// driver at Jobs: 0.
var enginePool = fmt.Sprintf("closed loop, 1 client goroutine, engine pool of %d workers (Jobs: 0)", runtime.GOMAXPROCS(0))

var workloads = []workload{
	{name: "pageload-warm", clients: "closed loop, 1 client goroutine, no worker pool", setupRounds: 9, setup: setupPageloadWarm},
	{name: "sweep-paper", clients: enginePool, setupRounds: 3, setup: setupSweepPaper},
	{name: "population-contended", clients: enginePool, setupRounds: 3, setup: setupPopulation},
	{name: "faults-recovery", clients: enginePool, setupRounds: 3, setup: setupFaults},
	{name: "cli-cold", clients: "closed loop, 1 client goroutine, 1 child process at a time", setupRounds: 9, setup: setupCLICold},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- pageload-warm ---

// warmLoad is one (site, strategy) cell of the pageload-warm matrix.
type warmLoad struct {
	tb   *core.Testbed
	site *replay.Site
	plan replay.Plan
	// pushAll marks the push-all cells, whose pushed-byte accounting
	// feeds replay.push_useful_share in the traced run.
	pushAll bool
}

const (
	warmSitesPerProfile = 4
	warmRunIndices      = 4
)

// warmStrategies is the strategy axis of pageload-warm: the baseline,
// the naive strategy and the paper's headline one.
func warmStrategies() []strategy.Strategy {
	return []strategy.Strategy{strategy.NoPush{}, strategy.PushAll{}, strategy.PushCriticalOptimized{}}
}

// warmInputs generates the pageload-warm matrix: 8 sites (4 random, 4
// top-profile) x 3 strategies on the DSL link, each prepared and with
// its strategy applied, so the measured loop pays for none of that.
func warmInputs(seed, corpusSeed int64) ([]warmLoad, error) {
	scs, err := seededScenarios([]string{"dsl"}, seed)
	if err != nil {
		return nil, err
	}
	var sites []*replay.Site
	for _, prof := range []corpus.Profile{corpus.RandomProfile(), corpus.TopProfile()} {
		for i := 0; i < warmSitesPerProfile; i++ {
			sites = append(sites, corpus.Generate(prof, i, corpusSeed))
		}
	}
	var loads []warmLoad
	for _, site := range sites {
		site.Prepared()
		for _, st := range warmStrategies() {
			runSite, plan := st.Apply(site, nil)
			runSite.Prepared()
			tb := core.NewTestbed()
			tb.Scenario = scs[0]
			tb.Seed = seed
			_, noPush := st.(strategy.NoPush)
			if noPush {
				tb.Browser.EnablePush = false
			}
			_, pushAll := st.(strategy.PushAll)
			loads = append(loads, warmLoad{tb: tb, site: runSite, plan: plan, pushAll: pushAll})
		}
	}
	return loads, nil
}

// loadDigest appends the scalars of one load that a speed-only change
// must leave untouched.
func loadDigest(b []byte, r *browser.Result) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(r.PLT))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.SpeedIndex))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Requests))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Outcome))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.BytesPushedUsed+r.BytesPushedWasted))
	return b
}

func setupPageloadWarm(seed, corpus int64) (*instance, error) {
	loads, err := warmInputs(seed, corpus)
	if err != nil {
		return nil, err
	}
	rc := core.NewRunContext()
	var buf []byte
	return &instance{
		loads: len(loads) * warmRunIndices,
		iterate: func() (digest, int, error) {
			buf = buf[:0]
			failed := 0
			for _, l := range loads {
				for run := 0; run < warmRunIndices; run++ {
					r := l.tb.RunOnceWith(rc, l.site, l.plan, run)
					if r.Outcome != browser.OutcomeComplete {
						failed++
					}
					buf = loadDigest(buf, r.Result)
				}
			}
			return sha256.Sum256(buf), failed, nil
		},
	}, nil
}

// --- the three sweeps ---

func tablesDigest(tabs []*core.Table) digest {
	h := sha256.New()
	for _, t := range tabs {
		t.Print(h)
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// sweepInstance wraps a table-producing sweep: the reference is the
// same sweep at Jobs: 1, every measured iteration runs at Jobs: 0 (the
// engine's GOMAXPROCS pool).
func sweepInstance(loads int, corpus int64, sweep func(core.ExperimentScale) ([]*core.Table, error),
	scale core.ExperimentScale, failedLoads func([]*core.Table) (int, error)) (*instance, error) {
	scale.Seed = corpus
	scale.Jobs = 1
	tabs, err := sweep(scale)
	if err != nil {
		return nil, err
	}
	ref := tablesDigest(tabs)
	scale.Jobs = 0
	return &instance{
		loads:     loads,
		reference: &ref,
		iterate: func() (digest, int, error) {
			tabs, err := sweep(scale)
			if err != nil {
				return digest{}, 0, err
			}
			failed := 0
			if failedLoads != nil {
				if failed, err = failedLoads(tabs); err != nil {
					return digest{}, 0, err
				}
			}
			return tablesDigest(tabs), failed, nil
		},
	}, nil
}

var (
	sweepPaperScenarios = []string{"dsl", "satellite", "wifi-lossy", "3g"}
	sweepPaperScale     = core.ExperimentScale{Sites: 3, Runs: 31}

	populationPresets = []string{"household", "cell-sector"}
	populationClients = []int{16, 64}
	populationScale   = core.ExperimentScale{Sites: 2, Runs: 2}

	faultScenarios = []string{"dsl", "satellite"}
	faultScale     = core.ExperimentScale{Sites: 3, Runs: 11}
)

// traceRuns is the number of dependency-tracing loads the sweep
// drivers spend per site before evaluating strategies.
func traceRuns(runs int) int { return min(5, runs) }

func setupSweepPaper(seed, corpus int64) (*instance, error) {
	scs, err := seededScenarios(sweepPaperScenarios, seed)
	if err != nil {
		return nil, err
	}
	perSite := traceRuns(sweepPaperScale.Runs) + len(core.PopularStrategies())*sweepPaperScale.Runs
	loads := len(scs) * sweepPaperScale.Sites * perSite
	return sweepInstance(loads, corpus, func(sc core.ExperimentScale) ([]*core.Table, error) {
		return core.ScenarioSweep(scs, sc)
	}, sweepPaperScale, nil)
}

func setupPopulation(seed, corpus int64) (*instance, error) {
	pops := make([]scenario.Population, len(populationPresets))
	for i, name := range populationPresets {
		pop, err := scenario.PopulationByName(name)
		if err != nil {
			return nil, err
		}
		pop.Shared.RTT = scaleRTT(pop.Shared.RTT, seed)
		pops[i] = pop
	}
	clients := 0
	for _, n := range populationClients {
		clients += n
	}
	// The population tables contrast three strategies (no push, push
	// all, push critical optimized) per client count.
	const strategies = 3
	loads := len(pops) * clients * strategies * populationScale.Runs
	return sweepInstance(loads, corpus, func(sc core.ExperimentScale) ([]*core.Table, error) {
		return core.PopulationSweep(pops, populationClients, sc)
	}, populationScale, incompletePopulationLoads)
}

// incompletePopulationLoads reads the "complete n/m" column of the
// population tables: the one place a sweep shows the harness loads that
// did not finish.
func incompletePopulationLoads(tabs []*core.Table) (int, error) {
	failed := 0
	for _, t := range tabs {
		col := -1
		for i, h := range t.Header {
			if h == "complete" {
				col = i
			}
		}
		if col < 0 {
			return 0, fmt.Errorf("population table %q has no complete column", t.Title)
		}
		for _, row := range t.Rows {
			n, m, ok := strings.Cut(row[col], "/")
			done, err1 := strconv.Atoi(n)
			total, err2 := strconv.Atoi(m)
			if !ok || err1 != nil || err2 != nil {
				return 0, fmt.Errorf("population table %q: bad complete cell %q", t.Title, row[col])
			}
			failed += total - done
		}
	}
	return failed, nil
}

func setupFaults(seed, corpus int64) (*instance, error) {
	scs, err := seededScenarios(faultScenarios, seed)
	if err != nil {
		return nil, err
	}
	// Every fault family (the fault-free baseline included) x three
	// strategies per site, after the tracing loads.
	const strategies = 3
	perSite := traceRuns(faultScale.Runs) + len(fault.Families())*strategies*faultScale.Runs
	loads := len(scs) * faultScale.Sites * perSite
	return sweepInstance(loads, corpus, func(sc core.ExperimentScale) ([]*core.Table, error) {
		return core.FaultSweep(scs, sc)
	}, faultScale, nil)
}

// --- cli-cold ---

// cliScale is the fixed input of cli-cold; cliArgs spells the same
// thing for the child, which has no seed flag and so ignores both the
// harness seed and the set-up round's corpus.
var (
	cliScale = core.ExperimentScale{Sites: 8, Runs: 3, Seed: corpusSeed}
	cliArgs  = []string{"-exp", "fig2b", "-nsites", "8", "-runs", "3"}
)

// outDir is where the harness leaves everything it writes.
const outDir = "bench/out"

// buildPushbench compiles cmd/pushbench from the checkout's sources
// into bench/out and returns the binary's path.
func buildPushbench() (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "pushbench"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pushbench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pushbench: %w\n%s", err, out)
	}
	return bin, nil
}

func setupCLICold(int64, int64) (*instance, error) {
	bin, err := buildPushbench()
	if err != nil {
		return nil, err
	}
	inProcess := func() (digest, error) {
		tab, err := core.Fig2bPushVsNoPush(cliScale)
		if err != nil {
			return digest{}, err
		}
		return tablesDigest([]*core.Table{tab}), nil
	}
	ref, err := inProcess()
	if err != nil {
		return nil, err
	}
	// Per site: the tracing loads, then the baseline and the strategy.
	perSite := traceRuns(cliScale.Runs) + 2*cliScale.Runs
	return &instance{
		loads:     cliScale.Sites * perSite,
		reference: &ref,
		children:  true,
		iterate: func() (digest, int, error) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, cliArgs...)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				var exit *exec.ExitError
				if errors.As(err, &exit) {
					return digest{}, 0, fmt.Errorf("pushbench %s: %w\n%s", strings.Join(cliArgs, " "), err, stderr.Bytes())
				}
				return digest{}, 0, err
			}
			return sha256.Sum256(out), 0, nil
		},
		allocProbe: func() error { _, err := inProcess(); return err },
	}, nil
}
