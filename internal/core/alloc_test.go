package core

import (
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
// the second 16-client household unit on a warm accumulator (topology,
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
	applied, plans, cfgs := populationPrep(sts, sites)
	acc := &popAccumulator{cells: make([]popCell, 1)}
	unit := func(run int) {
		acc.runUnit(shared, &acc.cells[0], applied[0], plans[0], cfgs[0], run, popSeed(1, 0, 0, run))
	}
	unit(0)
	run := 0
	avg := testing.AllocsPerRun(3, func() {
		run++
		unit(run)
	})
	if acc.topo.SharedDrops() == 0 {
		t.Fatal("test premise: no drops at the shared bottleneck, so no retransmit timer was armed")
	}
	if c := &acc.cells[0]; c.complete != c.loads {
		t.Fatalf("%d of %d loads completed", c.complete, c.loads)
	}
	// Measured ~6.1k (380 per load; 9.3k before): most of what is left is
	// h2 stream and HPACK state still growing towards the high-water mark
	// of a population whose contention pattern differs unit to unit.
	const budget = 8000
	if avg > budget {
		t.Errorf("warm 16-client population unit allocates %.0f (%.0f per load), budget %d", avg, avg/16, budget)
	}
}
