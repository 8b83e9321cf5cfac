package core

import (
	"runtime"
	"testing"

	"repro/internal/browser"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

// TestPageLoadAllocBudget is the allocation regression guard for the
// cold-start path: a throwaway context, but a warm prepared site. PR 3's
// zero-copy data plane took a load from ~17.9k allocations to under 6k,
// PR 4's prepared sites to ~3.2k, and PR 5's dense-ID tables plus pooled
// h2 connections to under 2k. The budget leaves headroom for benign
// churn while pinning the trajectory. (Not meaningful under -race, which
// inflates allocation counts; CI runs it in the plain test pass.)
func TestPageLoadAllocBudget(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 0, 1)
	tb := NewTestbed()
	plan := replay.NoPush()
	avg := testing.AllocsPerRun(3, func() {
		if r := tb.RunOnce(site, plan, 0); r.Outcome != browser.OutcomeComplete {
			t.Fatal("incomplete load")
		}
	})
	const budget = 2400 // measured ~1.7k after the event-lane refactor
	if avg > budget {
		t.Errorf("page load allocates %.0f, budget %d", avg, budget)
	}
}

// warmLoads is how many loads the warm-path tests run on a context
// before they count. One is not enough: the free lists hand pooled
// structs out in rotation, so a connection, stream or segment struct
// keeps growing until it has played the largest role once. Measured on
// RandomProfile site 0, allocations per load run 4902, 512, 63, 25, 17,
// 12, 8, 8, 6, 5, 5, 3, 2, 2, ... and stay flat from the 13th load.
const warmLoads = 24

// warmLoadAllocs returns the allocations of one load of site under plan
// on rc once rc has run it warmLoads times, cycling four run seeds as a
// sweep's repetitions do.
func warmLoadAllocs(t *testing.T, tb *Testbed, rc *RunContext, site *replay.Site, plan replay.Plan) float64 {
	t.Helper()
	run := 0
	load := func() {
		if r := tb.RunOnceWith(rc, site, plan, run%4); r.Outcome != browser.OutcomeComplete {
			t.Fatal("incomplete load")
		}
		run++
	}
	for run < warmLoads {
		load()
	}
	return testing.AllocsPerRun(8, load)
}

// warmLoadBudget bounds a warm load: measured 0 without interleaving
// and 1 with it — at most one netem segment still growing its parts
// list. The run's Conditions and its RunResult live in the context
// (2 and 3 while Scenario.Derive and RunOnceWith allocated them).
const warmLoadBudget = 2

// TestRunContextReuseAllocBudget is the regression guard for the warm
// replay path: a run on a *warm* RunContext — site prepared and
// interned, simulator/network/loader state, pooled h2 connections and
// resource tables all grown — allocates nothing. PR 4 brought the warm
// run to ~2.4k allocations; PR 5's dense-ID tables, pooled connections
// and pre-encoded header blocks to ~140, PR 12's recycled netem
// connections and pooled timers to ~100, binding the loader's, farm's
// and h2's continuations to their pooled structs (with HPACK static
// matching that builds no key) to 2, and deriving the run's Conditions
// into the context and returning its RunResult from there to 0.
// (Not meaningful under -race; CI runs it in the plain test pass.)
func TestRunContextReuseAllocBudget(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 0, 1)
	if avg := warmLoadAllocs(t, NewTestbed(), NewRunContext(), site, replay.NoPush()); avg > warmLoadBudget {
		t.Errorf("warm-context page load allocates %.0f, budget %d", avg, warmLoadBudget)
	}
}

// TestWarmLoadAllocBudgetByStrategy holds the push paths to the same
// budget: PUSH_PROMISE adoption (PushPre, promisedResource) and the
// interleaving gate (Interleave/ResumeAfter) are where a per-load
// closure or map would hide from the no-push test above.
func TestWarmLoadAllocBudgetByStrategy(t *testing.T) {
	for _, site := range []*replay.Site{
		corpus.Generate(corpus.RandomProfile(), 0, 1),
		corpus.Generate(corpus.TopProfile(), 2, 1),
	} {
		for _, st := range []strategy.Strategy{strategy.NoPush{}, strategy.PushAll{}, strategy.PushCriticalOptimized{}} {
			runSite, plan := st.Apply(site, nil)
			tb := NewTestbed()
			tb.Browser.EnablePush = !strategy.DisablesPush(st)
			if avg := warmLoadAllocs(t, tb, NewRunContext(), runSite, plan); avg > warmLoadBudget {
				t.Errorf("%s, %s: warm load allocates %.0f, budget %d", site.Name, st.Name(), avg, warmLoadBudget)
			}
		}
	}
}

// TestFaultRunAllocBudget guards the recovery path's control plane: one
// faulted run — the DSL link flaps mid-load under the fault sweep's
// recovery configuration, so every fetch arms a budget timer, the cut
// tail-drops segments into retransmit timers and the load re-converges
// — on a warm context. Before the pooled-timer refactor each armed
// timer cost a closure plus an Event and each connection seven
// allocations.
func TestFaultRunAllocBudget(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 0, 1)
	var flap fault.Spec
	for _, fam := range fault.Families() {
		if fam.Name == "flap" {
			flap = fam.Spec
		}
	}
	tb := NewTestbed()
	tb.Scenario = scenario.DSL().WithFaults(flap)
	tb.Browser.ResourceTimeout = faultResourceTimeout
	tb.Browser.MaxRetries = faultMaxRetries
	tb.Browser.RetryBackoff = faultRetryBackoff
	rc := NewRunContext()
	avg := warmLoadAllocs(t, tb, rc, site, replay.NoPush())
	if rc.net.Drops() == 0 {
		t.Fatal("test premise: the flap dropped nothing, so no retransmit timer was armed")
	}
	// Measured 0, and 0 to 1 across all seven fault families (3 while
	// Derive allocated the *Conditions and its fault plan's events and
	// RunOnceWith the *RunResult; 95 before the continuations were bound
	// to pooled structs; 423 before timers and connections were pooled).
	const budget = 2
	if avg > budget {
		t.Errorf("warm-context faulted load allocates %.0f, budget %d", avg, budget)
	}
}

// TestPopulationUnitAllocBudget guards the many-clients-one-loop path:
// a 16-client household unit on a warm RunContext (topology, client
// networks and seats grown by a dozen earlier units). The 16
// clients dial ~100 connections between them and the shared queue's
// drops arm hundreds of retransmit timers; both used to allocate.
func TestPopulationUnitAllocBudget(t *testing.T) {
	pop, err := scenario.PopulationByName("household")
	if err != nil {
		t.Fatal(err)
	}
	shared := pop.Shared
	shared.Clients = 16
	sts := []strategy.Strategy{strategy.NoPush{}}
	sites := corpus.GenerateSet(corpus.RandomProfile(), 2, 1)
	prep := populationPrep(sts, sites)
	rc := NewRunContext()
	var cell popCell
	unit := func(run int) {
		rc.runPopulation(shared, &cell, prep.applied[0], prep.plans[0], prep.cfgs[0], run, popSeed(1, 0, 0, run))
	}
	// Every seat meets the other site of the pair on its second unit and
	// the contention pattern differs unit to unit, so the seats' h2 and
	// HPACK state reaches its high-water mark over several units:
	// 19173, 8197, 6772, 4020, 3630, 1341, 1322, 1053, 68, 107, 61, ...
	run := 0
	for ; run < 12; run++ {
		unit(run)
	}
	avg := testing.AllocsPerRun(3, func() {
		unit(run)
		run++
	})
	if rc.topo.SharedDrops() == 0 {
		t.Fatal("test premise: no drops at the shared bottleneck, so no retransmit timer was armed")
	}
	if cell.complete != cell.loads {
		t.Fatalf("%d of %d loads completed", cell.complete, cell.loads)
	}
	// Measured 93 (6 per load: two API values each, the rest late growth;
	// the same three units allocated 1,175 before the loader's, farm's
	// and h2's continuations were bound to their pooled structs).
	const budget = 180
	if avg > budget {
		t.Errorf("warm 16-client population unit allocates %.0f (%.0f per load), budget %d", avg, avg/16, budget)
	}
}

// TestSweepReentryAllocBudget guards what the engine's free list buys:
// a driver called a second time in a process — a benchmark iteration,
// the next table of a CLI run, a caller's loop — simulates on the
// contexts and population seats the first call grew, so it allocates
// per load what a warm load allocates, not what building a worker's
// world does. Before the engine owned that state every call, every
// table and every preset started cold: the same second calls cost 256
// allocations per load on the scenario sweep and 510 on the population
// sweep, then 113-117 and 58-62, then 63 and 6; they now measure 50
// and 6. The fault sweep measured 61 while it re-applied each strategy
// per fault family, and now measures 13. What is left of the scenario
// and fault sweeps' figures is work per (site, strategy) — the
// majority-vote order, plan lowering, header pre-encoding — that this
// scale spreads over three loads where the paper's spreads it over 31.
func TestSweepReentryAllocBudget(t *testing.T) {
	second := func(call func()) float64 {
		call()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	sc := ExperimentScale{Sites: 2, Runs: 3, Seed: 1, Jobs: 1}
	for _, tc := range []struct {
		name   string
		loads  int
		budget float64 // allocations per load
		call   func()
	}{
		// Per scenario and site: 3 trace loads, then 6 strategies x 3 runs.
		{"ScenarioSweep", 2 * 2 * (3 + 6*3), 95, func() {
			if _, err := ScenarioSweep([]scenario.Scenario{scenario.DSL(), scenario.LTE()}, sc); err != nil {
				t.Fatal(err)
			}
		}},
		// Per scenario and site: 3 trace loads, then 7 fault families x
		// 3 strategies x 3 runs.
		{"FaultSweep", 2 * 2 * (3 + 7*3*3), 25, func() {
			if _, err := FaultSweep([]scenario.Scenario{scenario.DSL(), scenario.LTE()}, sc); err != nil {
				t.Fatal(err)
			}
		}},
		// Per preset: 3 strategies x 3 runs x 16 clients.
		{"PopulationSweep", 2 * 3 * 3 * 16, 9, func() {
			if _, err := PopulationSweep([]scenario.Population{scenario.Household(), scenario.CellSector()}, []int{16}, sc); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		perLoad := second(tc.call) / float64(tc.loads)
		if perLoad > tc.budget {
			t.Errorf("second %s call allocates %.0f per load over %d loads, budget %.0f", tc.name, perLoad, tc.loads, tc.budget)
		}
	}
}
