package core

import (
	"runtime"
	"testing"

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
		if r := tb.RunOnce(site, plan, 0); !r.Completed {
			t.Fatal("incomplete load")
		}
	})
	const budget = 2400 // measured ~1.7k after the event-lane refactor
	if avg > budget {
		t.Errorf("page load allocates %.0f, budget %d", avg, budget)
	}
}

// TestRunContextReuseAllocBudget is the regression guard for the warm
// replay path: a run on a *warm* RunContext — site prepared and
// interned, simulator/network/loader state, pooled h2 connections and
// resource tables all grown — must stay far below even the cold path.
// PR 4 brought the warm run to ~2.4k allocations; PR 5's dense-ID
// tables, pooled connections and pre-encoded header blocks to ~140, and
// PR 12's recycled netem connections and pooled timers to ~100. What
// remains is a handful of per-run closures in the farm and loader. (Not
// meaningful under -race; CI runs it in the plain test pass.)
func TestRunContextReuseAllocBudget(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 0, 1)
	tb := NewTestbed()
	plan := replay.NoPush()
	rc := NewRunContext()
	if r := tb.RunOnceWith(rc, site, plan, 0); !r.Completed {
		t.Fatal("incomplete warm-up load")
	}
	avg := testing.AllocsPerRun(5, func() {
		if r := tb.RunOnceWith(rc, site, plan, 1); !r.Completed {
			t.Fatal("incomplete load")
		}
	})
	const budget = 130 // measured 98 (166 before) with netem connections and timers pooled
	if avg > budget {
		t.Errorf("warm-context page load allocates %.0f, budget %d", avg, budget)
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
	plan := replay.NoPush()
	rc := NewRunContext()
	tb.RunOnceWith(rc, site, plan, 0)
	retransmitted := false
	avg := testing.AllocsPerRun(5, func() {
		r := tb.RunOnceWith(rc, site, plan, 1)
		if !r.Completed {
			t.Fatal("faulted load did not recover")
		}
		retransmitted = retransmitted || rc.net.Drops() > 0
	})
	if !retransmitted {
		t.Fatal("test premise: the flap dropped nothing, so no retransmit timer was armed")
	}
	const budget = 125 // measured 95; 423 before timers and connections were pooled
	if avg > budget {
		t.Errorf("warm-context faulted load allocates %.0f, budget %d", avg, budget)
	}
}

// TestPopulationUnitAllocBudget guards the many-clients-one-loop path:
// the second 16-client household unit on warm worker state (topology,
// client networks, farms and loaders grown by the first). The 16
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
	w := new(popWorker)
	var cell popCell
	unit := func(run int) {
		w.runUnit(shared, &cell, prep.applied[0], prep.plans[0], prep.cfgs[0], run, popSeed(1, 0, 0, run))
	}
	unit(0)
	run := 0
	avg := testing.AllocsPerRun(3, func() {
		run++
		unit(run)
	})
	if w.topo.SharedDrops() == 0 {
		t.Fatal("test premise: no drops at the shared bottleneck, so no retransmit timer was armed")
	}
	if cell.complete != cell.loads {
		t.Fatalf("%d of %d loads completed", cell.complete, cell.loads)
	}
	// Measured 6,055 (378 per load; 9.3k before PR 12): every seat meets
	// the other site of the pair on its second unit, so what is left is
	// h2 stream and HPACK state still growing towards the high-water mark
	// of a population whose contention pattern differs unit to unit.
	const budget = 7500
	if avg > budget {
		t.Errorf("warm 16-client population unit allocates %.0f (%.0f per load), budget %d", avg, avg/16, budget)
	}
}

// TestSweepReentryAllocBudget guards what the engine's free lists buy:
// a driver called a second time in a process — a benchmark iteration,
// the next table of a CLI run, a caller's loop — simulates on the
// contexts and population seats the first call grew, so it allocates
// per load what a warm load allocates, not what building a worker's
// world does. Before the engine owned that state every call, every
// table and every preset started cold: the same second calls cost 256
// allocations per load on the scenario sweep and 510 on the population
// sweep; they now measure 113-117 and 58-62.
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
		{"ScenarioSweep", 2 * 2 * (3 + 6*3), 150, func() {
			if _, err := ScenarioSweepNames([]string{"dsl", "lte"}, sc); err != nil {
				t.Fatal(err)
			}
		}},
		// Per preset: 3 strategies x 3 runs x 16 clients.
		{"PopulationSweep", 2 * 3 * 3 * 16, 80, func() {
			if _, err := PopulationSweepNames([]string{"household", "cell-sector"}, []int{16}, sc); err != nil {
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
