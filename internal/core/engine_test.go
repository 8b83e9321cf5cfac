package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

// forEach drives the budget without worker state: fn(i) runs for every i
// in [0,n) on b's workers.
func forEach(b *budget, n int, fn func(i int)) {
	b.fanOut(n, func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			fn(i)
		}
	})
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, jobs := range []int{1, 2, 7, 0} {
		hits := make([]int, 100)
		forEach(newBudget(jobs), len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("jobs=%d: index %d executed %d times", jobs, i, h)
			}
		}
	}
}

// TestEvaluateParallelMatchesSequential is the engine's core contract: a
// parallel evaluation must be indistinguishable from the sequential one,
// down to the order of the collected per-run samples.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 4, 5)
	seq := NewTestbed()
	seq.Runs = 5
	seq.Jobs = 1
	par := NewTestbed()
	par.Runs = 5
	par.Jobs = 4
	evSeq := seq.Evaluate(site, replay.NoPush(), "x")
	evPar := par.Evaluate(site, replay.NoPush(), "x")
	if evSeq.MedianPLT != evPar.MedianPLT || evSeq.MedianSI != evPar.MedianSI ||
		evSeq.BytesPushed != evPar.BytesPushed || evSeq.Completed != evPar.Completed {
		t.Fatalf("summary diverged: %+v vs %+v", evSeq, evPar)
	}
	for i := range evSeq.PLT.Values {
		if evSeq.PLT.Values[i] != evPar.PLT.Values[i] {
			t.Fatalf("run %d PLT diverged: %v vs %v", i, evSeq.PLT.Values[i], evPar.PLT.Values[i])
		}
	}
}

// TestExperimentTablesParallelMatchSequential renders full experiment
// tables through the sequential (Jobs=1) and parallel (Jobs=4) engine
// and requires byte-identical output.
func TestExperimentTablesParallelMatchSequential(t *testing.T) {
	seq := ExperimentScale{Sites: 3, Runs: 3, Seed: 1, Jobs: 1}
	par := seq
	par.Jobs = 4
	for _, tc := range []struct {
		name string
		run  func(ExperimentScale) (*Table, error)
	}{
		{"fig2b", Fig2bPushVsNoPush},
		{"fig6", func(sc ExperimentScale) (*Table, error) {
			return Fig6Popular([]string{"w1", "w2"}, sc)
		}},
		{"fig5", Fig5Interleaving},
	} {
		ta, err := tc.run(seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		tb, err := tc.run(par)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.name, err)
		}
		a, b := ta.String(), tb.String()
		if a != b {
			t.Errorf("%s: parallel table differs from sequential:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", tc.name, a, b)
		}
	}
}

// TestTraceParallelMatchesSequential checks the dependency-tracing step
// records identical request orders under the pool.
func TestTraceParallelMatchesSequential(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 6, 5)
	seq := NewTestbed()
	seq.Jobs = 1
	par := NewTestbed()
	par.Jobs = 3
	a := seq.Trace(site, 4)
	b := par.Trace(site, 4)
	if len(a.Orders) != len(b.Orders) {
		t.Fatalf("order counts: %d vs %d", len(a.Orders), len(b.Orders))
	}
	for i := range a.Orders {
		if len(a.Orders[i]) != len(b.Orders[i]) {
			t.Fatalf("order %d lengths differ", i)
		}
		for j := range a.Orders[i] {
			if a.Orders[i][j] != b.Orders[i][j] {
				t.Fatalf("order %d diverged at %d: %q vs %q", i, j, a.Orders[i][j], b.Orders[i][j])
			}
		}
	}
}

// TestEvaluateStrategyConcurrentSafe evaluates push and no-push
// strategies concurrently on one shared Testbed; under -race this fails
// if EvaluateStrategy still mutates the receiver.
func TestEvaluateStrategyConcurrentSafe(t *testing.T) {
	site := corpus.SyntheticSites()[1] // s2: small single-server blog
	tb := NewTestbed()
	tb.Runs = 2
	strategies := []strategy.Strategy{
		strategy.NoPush{}, strategy.PushAll{}, strategy.NoPush{}, strategy.PushAll{},
	}
	evs := make([]*Evaluation, len(strategies))
	var wg sync.WaitGroup
	for i, st := range strategies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs[i] = tb.EvaluateStrategy(site, st, nil)
		}()
	}
	wg.Wait()
	if evs[0].BytesPushed != 0 || evs[2].BytesPushed != 0 {
		t.Fatal("no-push evaluation pushed bytes: receiver config leaked across goroutines")
	}
	if evs[1].BytesPushed == 0 || evs[3].BytesPushed == 0 {
		t.Fatal("push-all evaluation pushed nothing")
	}
	if !tb.Browser.EnablePush {
		t.Fatal("shared testbed config was mutated")
	}
}

// TestCollectWithWorkerContextsParallel pins the engine's state
// contract: every worker that runs a unit holds exactly one state, no
// state is ever touched by two goroutines at once, a lent state is used
// but never put on the free list, and the states a pool checked out are
// back on the list — warm — for the next pool.
func TestCollectWithWorkerContextsParallel(t *testing.T) {
	type ctx struct {
		inUse atomic.Bool
		units int
	}
	for _, jobs := range []int{1, 3, 8} {
		var made atomic.Int64
		pool := freeList[ctx]{fresh: func() *ctx { made.Add(1); return new(ctx) }}
		unit := func(c *ctx, i int) int {
			if !c.inUse.CompareAndSwap(false, true) {
				t.Error("state used concurrently by two workers")
			}
			c.units++
			c.inUse.Store(false)
			return i * i
		}
		lent := new(ctx)
		for round := 0; round < 3; round++ {
			out := collectWith(newBudget(jobs), 40, &pool, lent, unit)
			for i, v := range out {
				if v != i*i {
					t.Fatalf("jobs=%d: slot %d = %d", jobs, i, v)
				}
			}
		}
		if lent.units == 0 {
			t.Errorf("jobs=%d: the lent state never ran a unit", jobs)
		}
		// The lent state stands in for one worker, so a fan-out checks out
		// at most jobs-1 states at a time, and the list keeps that many idle
		// whatever GOMAXPROCS is: later fan-outs must reuse them instead of
		// creating more, and none may be dropped.
		need := jobCount(jobs) - 1
		if got := int(made.Load()); got > need {
			t.Errorf("jobs=%d: %d states created over three fan-outs that need %d at a time", jobs, got, need)
		}
		total := lent.units
		for _, c := range pool.idle {
			if c == lent {
				t.Fatalf("jobs=%d: the lent state was released to the free list", jobs)
			}
			total += c.units
		}
		if len(pool.idle) > jobCount(jobs) {
			t.Errorf("jobs=%d: %d idle states, more than the widest budget that checked out", jobs, len(pool.idle))
		}
		if total != 3*40 {
			t.Errorf("jobs=%d: idle and lent states ran %d units, want 120 (a state was dropped)", jobs, total)
		}
	}
}

// TestNestedFanOutStaysWithinBudget nests three fan-outs on one budget
// and holds every innermost unit until Jobs of them are executing at
// once. That they get there shows nested fan-outs fill the whole budget
// (the test would hang otherwise); the peak shows they never exceed it;
// returning at all shows nesting cannot deadlock, Jobs 1 included, where
// the opener of every fan-out is its only worker.
func TestNestedFanOutStaysWithinBudget(t *testing.T) {
	type state struct{ inUse atomic.Bool }
	for _, jobs := range []int{1, 2, 3, 8} {
		b := newBudget(jobs)
		pool := freeList[state]{fresh: func() *state { return new(state) }}
		var running, peak atomic.Int64
		full := make(chan struct{}) // closed once jobs leaves execute at once
		var hits [3 * 4 * 5]atomic.Int64
		forEach(b, 3, func(i int) {
			forEach(b, 4, func(j int) {
				forEachWith(b, 5, &pool, nil, func(s *state, k int) {
					if !s.inUse.CompareAndSwap(false, true) {
						t.Error("state used concurrently by two workers")
					}
					now := running.Add(1)
					for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
					}
					if now == int64(jobs) {
						select {
						case <-full:
						default:
							close(full)
						}
					}
					<-full
					hits[(i*4+j)*5+k].Add(1)
					running.Add(-1)
					s.inUse.Store(false)
				})
			})
		})
		if got := peak.Load(); got != int64(jobs) {
			t.Errorf("jobs=%d: peak of %d units executing at once", jobs, got)
		}
		for u := range hits {
			if n := hits[u].Load(); n != 1 {
				t.Errorf("jobs=%d: leaf %d executed %d times", jobs, u, n)
			}
		}
		if len(b.slots) != 1 {
			t.Errorf("jobs=%d: %d slots held after the fan-outs returned, want the caller's one", jobs, len(b.slots))
		}
	}
}

// TestFreedSlotIsReused is the work-conserving half: Jobs outer units,
// one of which fans out again over more units than there are slots.
// While its siblings execute, that inner fan-out cannot have all Jobs
// slots; its units wait until it does. They are released only if every
// slot a finished sibling frees — a helper's when its units run out, the
// opener's while it waits for its helpers — reaches the inner fan-out's
// parked helpers. long is the index of the unit that fans out: at 0 the
// outer opener draws it, at 1 a helper does.
func TestFreedSlotIsReused(t *testing.T) {
	for _, jobs := range []int{2, 3, 8} {
		for long := 0; long < 2; long++ {
			b := newBudget(jobs)
			started := make(chan struct{}) // the inner fan-out is executing
			reached := make(chan struct{}) // jobs inner units executed at once
			var inner atomic.Int64
			forEach(b, jobs, func(i int) {
				if i != long {
					<-started
					return
				}
				forEach(b, 3*jobs, func(k int) {
					if k == 0 {
						close(started)
					}
					if inner.Add(1) == int64(jobs) {
						select {
						case <-reached:
						default:
							close(reached)
						}
					}
					<-reached
					inner.Add(-1)
				})
			})
		}
	}
}

// TestRunOnceWithMatchesRunOnce pins context reuse at the testbed
// level: repeated runs on one warm RunContext yield the same scalar
// results as throwaway-context runs, for a scenario with third-party
// overlay scaling (the internet scenario), for the plain testbed, and
// for faulted runs (flap, goaway, link-cut) interleaved with fault-free
// ones, so the context's reused fault-event buffer, Conditions and
// RunResult are each checked against fresh ones.
func TestRunOnceWithMatchesRunOnce(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 3, 4)
	check := func(tb *Testbed, rc *RunContext, site *replay.Site, plan replay.Plan, run int) {
		t.Helper()
		fresh := tb.RunOnce(site, plan, run)
		warm := tb.RunOnceWith(rc, site, plan, run)
		if warm.PLT != fresh.PLT || warm.SpeedIndex != fresh.SpeedIndex ||
			warm.Outcome != fresh.Outcome || warm.Requests != fresh.Requests ||
			warm.FailedResources != fresh.FailedResources ||
			warm.BytesPushedWasted != fresh.BytesPushedWasted ||
			warm.WireBytesPushed != fresh.WireBytesPushed || warm.WirePushCount != fresh.WirePushCount {
			t.Fatalf("%s run %d: warm context diverged: %+v vs %+v", tb.Scenario.Name, run, warm.Result, fresh.Result)
		}
	}
	for _, scn := range []scenario.Scenario{scenario.DSL(), scenario.Internet()} {
		tb := NewTestbed()
		tb.Scenario = scn
		rc := NewRunContext()
		for run := 0; run < 4; run++ {
			check(tb, rc, site, replay.NoPush(), run)
		}
	}

	specs := map[string]fault.Spec{}
	for _, fam := range fault.Families() {
		specs[fam.Name] = fam.Spec
	}
	runSite, plan := strategy.PushAll{}.Apply(site, nil)
	rc := NewRunContext()
	for run := 0; run < 4; run++ {
		for _, fam := range []string{"flap", "none", "goaway", "none", "link-cut", "none"} {
			tb := NewTestbed()
			tb.Scenario = scenario.DSL().WithFaults(specs[fam])
			tb.Scenario.Name += "+" + fam
			tb.Browser.ResourceTimeout = faultResourceTimeout
			tb.Browser.MaxRetries = faultMaxRetries
			tb.Browser.RetryBackoff = faultRetryBackoff
			check(tb, rc, runSite, plan, run)
		}
	}
}
