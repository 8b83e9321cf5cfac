// Command pushbench runs the paper's experiments and prints the tables
// and series each figure reports.
//
// Usage:
//
//	pushbench -exp all                 # every experiment at small scale
//	pushbench -exp fig5                # one experiment
//	pushbench -exp fig6 -sites w1,w16  # subset of the popular sites
//	pushbench -exp fig3a -scale paper  # paper scale (100 sites, 31 runs)
//	pushbench -exp all -jobs 8         # fan runs/sites across 8 workers
//	pushbench -exp all -jobs 1         # strictly sequential (same output)
//
// The execution layer is pluggable: -executor multiprocess shards the
// site-level fan-out across pushbench child processes (re-exec'd with
// -worker), which scales past GOMAXPROCS=1 and produces byte-identical
// tables at any -shards value:
//
//	pushbench -exp fig2b -executor multiprocess -shards 4
//
// The cross-scenario sweep re-runs the strategy comparison under every
// named network scenario (or a chosen subset):
//
//	pushbench -experiment scenarios                    # all scenarios
//	pushbench -experiment scenarios -scenario lte,3g   # just these links
//
// The fault sweep reloads the same strategy comparison under scripted
// fault families (link flap, server stall, GOAWAY, push resets, push
// disable, permanent link cut) and reports how loads terminate:
//
//	pushbench -experiment faults -scenario dsl,satellite
//
// The population sweep loads N clients concurrently on one shared
// bottleneck (household DSL, cell-sector backhaul, office NAT uplink)
// and reports per-strategy median/p95 load times plus a fairness
// ratio, streamed through O(1)-memory quantile sketches:
//
//	pushbench -experiment population -clients 1,4,16,64
//	pushbench -experiment population -presets household -clients 1,8
//
// -experiment is an alias for -exp; -list-experiments prints every
// experiment with a one-line description.
//
// For performance work, -cpuprofile and -memprofile write pprof
// profiles of the selected experiment run, so a perf investigation can
// profile any experiment at any scale without an ad-hoc harness:
//
//	pushbench -exp fig2b -scale paper -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	// Becomes a shard worker and never returns when spawned by the
	// multiprocess executor; must run before flag parsing so the
	// -worker marker argument is never interpreted as a flag.
	core.MaybeServeWorker()
	os.Exit(run())
}

// run carries the whole command so error paths return instead of
// calling os.Exit directly: the deferred profile writers (StopCPUProfile,
// WriteHeapProfile) must flush even when an experiment or flag fails,
// or a -cpuprofile file would be left truncated and unparseable.
func run() int {
	var exp string
	flag.StringVar(&exp, "exp", "all", "experiment: fig1|fig2a|fig2b|pushable|fig3a|fig3b|types|fig4|fig5|fig6|scenarios|faults|all")
	flag.StringVar(&exp, "experiment", "all", "alias for -exp")
	scaleName := flag.String("scale", "small", "small|paper")
	sitesFlag := flag.String("sites", "", "comma-separated w-site ids for fig6 (default all)")
	scenarioFlag := flag.String("scenario", "all", "comma-separated scenario names for -experiment scenarios (all, or any of: "+strings.Join(scenario.Names(), ", ")+")")
	runs := flag.Int("runs", 0, "override repetitions per configuration")
	nsites := flag.Int("nsites", 0, "override sites per set")
	popN := flag.Int("population", 200_000, "population size for fig1")
	clientsFlag := flag.String("clients", "1,4,16,64", "comma-separated client counts for -experiment population")
	presetsFlag := flag.String("presets", "all", "comma-separated population preset names for -experiment population (all, or any of: "+strings.Join(scenario.PopulationNames(), ", ")+")")
	listExps := flag.Bool("list-experiments", false, "print the experiments with one-line descriptions and exit")
	jobs := flag.Int("jobs", 0, "loads in flight, at any nesting depth (0 = GOMAXPROCS, 1 = sequential); output is identical for any value")
	executor := flag.String("executor", core.ExecInProcess, "execution backend: inprocess|multiprocess; output is identical for either")
	shards := flag.Int("shards", 0, "multiprocess worker-child count (0 = GOMAXPROCS); output is identical for any value")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken after the experiment run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle accounting so the profile shows live + cumulative allocs
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	scale := core.SmallScale()
	if *scaleName == "paper" {
		scale = core.PaperScale()
	}
	if *runs > 0 {
		scale.Runs = *runs
	}
	if *nsites > 0 {
		scale.Sites = *nsites
	}
	scale.Jobs = *jobs
	scale.Exec = core.Exec{Kind: *executor, Shards: *shards}
	if err := scale.Exec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var fig6Sites []string
	if *sitesFlag != "" {
		fig6Sites = strings.Split(*sitesFlag, ",")
	}
	// Resolve scenario names eagerly so a typo fails before any
	// experiment runs — not minutes in, after earlier tables printed.
	scenarios := scenario.All()
	if *scenarioFlag != "" && *scenarioFlag != "all" {
		scenarios = scenarios[:0]
		for _, n := range strings.Split(*scenarioFlag, ",") {
			sc, err := scenario.ByName(n)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			scenarios = append(scenarios, sc)
		}
	}

	// Population inputs are resolved eagerly too, same rationale.
	var clientCounts []int
	for _, part := range strings.Split(*clientsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "-clients: %q is not a positive client count\n", part)
			return 2
		}
		clientCounts = append(clientCounts, n)
	}
	var popPresets []string // nil = all presets
	if *presetsFlag != "" && *presetsFlag != "all" {
		for _, n := range strings.Split(*presetsFlag, ",") {
			name := strings.TrimSpace(n)
			if _, err := scenario.PopulationByName(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			popPresets = append(popPresets, name)
		}
	}

	one := func(t *core.Table, err error) ([]*core.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*core.Table{t}, nil
	}
	experiments := map[string]func() ([]*core.Table, error){
		"fig1":      func() ([]*core.Table, error) { return one(core.Fig1Adoption(*popN, scale.Seed), nil) },
		"fig2a":     func() ([]*core.Table, error) { return one(core.Fig2aVariability(scale)) },
		"fig2b":     func() ([]*core.Table, error) { return one(core.Fig2bPushVsNoPush(scale)) },
		"pushable":  func() ([]*core.Table, error) { return one(core.PushableObjects(scale), nil) },
		"fig3a":     func() ([]*core.Table, error) { return one(core.Fig3aPushAll(scale)) },
		"fig3b":     func() ([]*core.Table, error) { return one(core.Fig3bPushAmount(scale)) },
		"types":     func() ([]*core.Table, error) { return one(core.PushByTypeAnalysis(scale)) },
		"fig4":      func() ([]*core.Table, error) { return one(core.Fig4Synthetic(scale)) },
		"fig5":      func() ([]*core.Table, error) { return one(core.Fig5Interleaving(scale)) },
		"fig6":      func() ([]*core.Table, error) { return one(core.Fig6Popular(fig6Sites, scale)) },
		"scenarios": func() ([]*core.Table, error) { return core.ScenarioSweep(scenarios, scale) },
		"faults":    func() ([]*core.Table, error) { return core.FaultSweep(scenarios, scale) },
		"population": func() ([]*core.Table, error) {
			return core.PopulationSweepNames(popPresets, clientCounts, scale)
		},
	}
	order := []string{"fig1", "fig2a", "fig2b", "pushable", "fig3a", "fig3b", "types", "fig4", "fig5", "fig6", "scenarios", "faults", "population"}
	descriptions := map[string]string{
		"fig1":       "H2 and Server Push adoption over 12 monthly scans",
		"fig2a":      "per-site std. error of PLT/SpeedIndex, testbed vs Internet",
		"fig2b":      "push vs no push on the testbed, per-site medians",
		"pushable":   "fraction of sites with <20% pushable objects",
		"fig3a":      "push all vs no push on both site sets",
		"fig3b":      "delta vs no push when pushing the first n objects",
		"types":      "pushing specific object types (CSS/JS/images)",
		"fig4":       "custom strategies on the synthetic sites s1-s10",
		"fig5":       "SpeedIndex vs HTML size for push interleaving",
		"fig6":       "six strategies on the modelled popular sites w1-w20",
		"scenarios":  "strategy comparison under every named network scenario",
		"faults":     "strategy comparison under scripted fault families",
		"population": "N clients contending on one shared bottleneck (-clients, -presets)",
	}
	if *listExps {
		for _, name := range order {
			fmt.Printf("%-11s %s\n", name, descriptions[name])
		}
		return 0
	}

	names := []string{exp}
	if exp == "all" {
		names = order
	} else if _, ok := experiments[exp]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s, all; see -list-experiments)\n", exp, strings.Join(order, ", "))
		return 2
	}
	for _, name := range names {
		tabs, err := experiments[name]()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		for _, t := range tabs {
			t.Print(os.Stdout)
		}
	}
	return 0
}
