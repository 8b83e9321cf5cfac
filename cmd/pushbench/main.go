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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// inputs are the resolved flag values the experiments run on.
type inputs struct {
	scale        core.ExperimentScale
	population   int
	fig6Sites    []string
	scenarios    []scenario.Scenario
	clientCounts []int
	populations  []scenario.Population
}

// experiment is one selectable -exp value.
type experiment struct {
	name, desc string
	run        func() ([]*core.Table, error)
}

// experiments is the one table -exp usage, -list-experiments, -exp all
// and the unknown-name error render from, in run order. The run
// functions read in when they are called, after flag parsing.
func experiments(in *inputs) []experiment {
	one := func(t *core.Table, err error) ([]*core.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*core.Table{t}, nil
	}
	return []experiment{
		{"fig1", "H2 and Server Push adoption over 12 monthly scans",
			func() ([]*core.Table, error) { return one(core.Fig1Adoption(in.population, in.scale.Seed), nil) }},
		{"fig2a", "per-site std. error of PLT/SpeedIndex, testbed vs Internet",
			func() ([]*core.Table, error) { return one(core.Fig2aVariability(in.scale)) }},
		{"fig2b", "push vs no push on the testbed, per-site medians",
			func() ([]*core.Table, error) { return one(core.Fig2bPushVsNoPush(in.scale)) }},
		{"pushable", "fraction of sites with <20% pushable objects",
			func() ([]*core.Table, error) { return one(core.PushableObjects(in.scale), nil) }},
		{"fig3a", "push all vs no push on both site sets",
			func() ([]*core.Table, error) { return one(core.Fig3aPushAll(in.scale)) }},
		{"fig3b", "delta vs no push when pushing the first n objects",
			func() ([]*core.Table, error) { return one(core.Fig3bPushAmount(in.scale)) }},
		{"types", "pushing specific object types (CSS/JS/images)",
			func() ([]*core.Table, error) { return one(core.PushByTypeAnalysis(in.scale)) }},
		{"fig4", "custom strategies on the synthetic sites s1-s10",
			func() ([]*core.Table, error) { return one(core.Fig4Synthetic(in.scale)) }},
		{"fig5", "SpeedIndex vs HTML size for push interleaving",
			func() ([]*core.Table, error) { return one(core.Fig5Interleaving(in.scale)) }},
		{"fig6", "six strategies on the modelled popular sites w1-w20",
			func() ([]*core.Table, error) { return one(core.Fig6Popular(in.fig6Sites, in.scale)) }},
		{"scenarios", "strategy comparison under every named network scenario",
			func() ([]*core.Table, error) { return core.ScenarioSweep(in.scenarios, in.scale) }},
		{"faults", "strategy comparison under scripted fault families",
			func() ([]*core.Table, error) { return core.FaultSweep(in.scenarios, in.scale) }},
		{"population", "N clients contending on one shared bottleneck (-clients, -presets)",
			func() ([]*core.Table, error) {
				return core.PopulationSweep(in.populations, in.clientCounts, in.scale)
			}},
	}
}

// run carries the whole command so error paths return instead of
// calling os.Exit directly: the deferred profile writers (StopCPUProfile,
// WriteHeapProfile) must flush even when an experiment or flag fails,
// or a -cpuprofile file would be left truncated and unparseable.
func run(args []string, stdout, stderr io.Writer) int {
	var in inputs
	exps := experiments(&in)
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}

	fs := flag.NewFlagSet("pushbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var exp string
	fs.StringVar(&exp, "exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	fs.StringVar(&exp, "experiment", "all", "alias for -exp")
	scaleName := fs.String("scale", "small", "small|paper")
	sitesFlag := fs.String("sites", "", "comma-separated w-site ids for fig6 (default all)")
	scenarioFlag := fs.String("scenario", "all", "comma-separated scenario names for -experiment scenarios (all, or any of: "+strings.Join(scenario.Names(), ", ")+")")
	runs := fs.Int("runs", 0, "override repetitions per configuration")
	nsites := fs.Int("nsites", 0, "override sites per set")
	fs.IntVar(&in.population, "population", 200_000, "population size for fig1")
	clientsFlag := fs.String("clients", "1,4,16,64", "comma-separated client counts for -experiment population")
	presetsFlag := fs.String("presets", "all", "comma-separated population preset names for -experiment population (all, or any of: "+strings.Join(scenario.PopulationNames(), ", ")+")")
	listExps := fs.Bool("list-experiments", false, "print the experiments with one-line descriptions and exit")
	jobs := fs.Int("jobs", 0, "loads in flight, at any nesting depth (0 = GOMAXPROCS, 1 = sequential); output is identical for any value")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken after the experiment run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle accounting so the profile shows live + cumulative allocs
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	in.scale = core.SmallScale()
	if *scaleName == "paper" {
		in.scale = core.PaperScale()
	}
	if *runs > 0 {
		in.scale.Runs = *runs
	}
	if *nsites > 0 {
		in.scale.Sites = *nsites
	}
	in.scale.Jobs = *jobs
	in.fig6Sites = nameList(*sitesFlag)
	// Resolve scenario, preset and client-count names eagerly so a typo
	// fails before any experiment runs — not minutes in, after earlier
	// tables printed.
	var err error
	if in.scenarios, err = scenario.ByNames(nameList(*scenarioFlag)); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if in.populations, err = scenario.PopulationsByNames(nameList(*presetsFlag)); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, part := range strings.Split(*clientsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(stderr, "-clients: %q is not a positive client count\n", part)
			return 2
		}
		in.clientCounts = append(in.clientCounts, n)
	}

	if *listExps {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-11s %s\n", e.name, e.desc)
		}
		return 0
	}

	selected := exps
	if exp != "all" {
		selected = nil
		for _, e := range exps {
			if e.name == exp {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "unknown experiment %q (have: %s, all; see -list-experiments)\n", exp, strings.Join(names, ", "))
			return 2
		}
	}
	for _, e := range selected {
		tabs, err := e.run()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		for _, t := range tabs {
			t.Print(stdout)
		}
	}
	return 0
}

// nameList splits a comma-separated name list flag; "" and "all" mean
// every name (nil).
func nameList(flag string) []string {
	if flag == "" || flag == "all" {
		return nil
	}
	parts := strings.Split(flag, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
