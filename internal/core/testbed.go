// Package core is the testbed of the paper: it wires the simulator, the
// emulated access network, the per-IP replay servers and the browser
// model into reproducible page loads, runs every configuration the
// evaluation section needs (31 repetitions, composable measurement
// scenarios from internal/scenario, arbitrary push strategies), and
// implements the experiment drivers that regenerate each figure and
// table plus the cross-scenario strategy sweep.
package core

import (
	"fmt"

	"repro/internal/browser"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/strategy"
	"time"
)

// Testbed runs page loads under one measurement scenario.
type Testbed struct {
	// Scenario is the measurement condition: the emulated access link
	// plus the run-to-run variability model. All per-run perturbation is
	// derived from it; the testbed itself holds no perturbation logic.
	Scenario scenario.Scenario
	Browser  browser.Config
	Runs     int
	Seed     int64
	// Jobs is the total number of loads in flight, at any nesting depth,
	// for a call to Evaluate or Trace: <=0 uses GOMAXPROCS, 1 is strictly
	// sequential. Every run re-seeds its simulator from the run index and
	// results are collected in run order, so output is identical for any
	// value.
	Jobs int

	// budget, when set, is the worker budget of the driver call this
	// testbed evaluates one unit of: Evaluate and Trace draw their workers
	// from it and Jobs is not consulted. A testbed without one is at the
	// top level, and each call gets a budget of Jobs of its own.
	budget *budget

	// ctx, when set, is a caller-owned RunContext lent to one run-level
	// worker of every Evaluate/Trace fan-out (the experiment drivers set it
	// to the site-level worker's context, so a site's evaluations keep
	// running on the warm state that context holds). The other workers,
	// and all of them when ctx is nil, run on contexts checked out of the
	// engine's free list (see engine.go). The lent context is used by
	// exactly one worker while the call blocks and is never put on the
	// free list, so a testbed carrying a ctx must only be used from a
	// single goroutine at a time; testbeds shared across goroutines (see
	// EvaluateStrategy) leave it nil.
	ctx *RunContext
}

// workers returns the budget tb's fan-outs draw on. The calling
// goroutine holds a slot of it either way: a driver's unit runs on one,
// and a new budget comes with the caller's slot taken.
func (tb *Testbed) workers() *budget {
	if tb.budget != nil {
		return tb.budget
	}
	return newBudget(tb.Jobs)
}

// UseContext attaches a caller-owned run context that Evaluate and
// Trace reuse across calls (see the ctx field for the ownership rules).
func (tb *Testbed) UseContext(rc *RunContext) { tb.ctx = rc }

// NewTestbed returns the paper's configuration: DSL link, 31 runs.
func NewTestbed() *Testbed {
	return &Testbed{
		Scenario: scenario.DSL(),
		Browser:  browser.DefaultConfig(),
		Runs:     31,
		Seed:     1,
	}
}

// NewTestbedFor builds a testbed for an arbitrary scenario, validating
// it up front so a nonsensical profile fails fast with a clear error
// instead of a mid-experiment panic.
func NewTestbedFor(sc scenario.Scenario) (*Testbed, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid scenario: %w", err)
	}
	tb := NewTestbed()
	tb.Scenario = sc
	return tb, nil
}

// RunResult couples the browser-side result with server-side stats.
type RunResult struct {
	*browser.Result
	WireBytesPushed int64
	WirePushCount   int
}

// RunContext owns the per-worker simulation state a load needs — the
// simulator, the emulated network and the client seats — and is reused
// across the loads a worker executes: a warm context resets this state
// instead of reallocating it, so steady-state loads spend their
// allocations only on genuinely per-run objects. A single-client run
// (RunOnceWith) puts seat 0 on the flat network; a population unit puts
// seats 0..k-1 on the clients of the shared-bottleneck topology, which
// the context builds on first use. A RunContext must be owned by
// exactly one goroutine at a time: the engine's worker pools guarantee
// that by construction, and a context changes goroutine only through
// the engine's free list. It caches scratch, never results, so reuse
// cannot change any output.
type RunContext struct {
	sim     *sim.Sim
	net     *netem.Network
	topo    *netem.Topology
	seats   []seat
	offsets []time.Duration // a population unit's arrival offsets
	// inj schedules the run's fault plan (if any) on the sim clock;
	// applyFn is the once-built dispatch closure it hands each event to.
	inj     fault.Injector
	applyFn func(fault.Event)
	// cond and res are the current run's derived conditions and its
	// result: RunOnceWith derives into the one and returns the other.
	cond scenario.Conditions
	res  RunResult
}

// seat is one client of a load: its replay farm, its browser loader and
// the third-party overlay scratch of the site it loads.
type seat struct {
	farm    *replay.Farm
	ld      *browser.Loader
	overlay scenario.SiteScratch
}

// NewRunContext returns an empty context; the first run populates it.
func NewRunContext() *RunContext { return &RunContext{} }

// seedSim readies the simulator for a run seeded with seed.
func (rc *RunContext) seedSim(seed int64) {
	if rc.sim == nil {
		rc.sim = sim.New(seed)
	} else {
		rc.sim.Reset(seed)
	}
}

// wire readies seat i on net to load site under plan with cond's per-run
// parameters — third-party scaling, server think time and the client
// jitter override on top of cfg — and returns its loader, not started.
// It is the one place a load is wired, for a single client and for
// every seat of a population.
func (rc *RunContext) wire(i int, net *netem.Network, cond *scenario.Conditions, site *replay.Site, plan replay.Plan, cfg browser.Config) *browser.Loader {
	for len(rc.seats) <= i {
		rc.seats = append(rc.seats, seat{})
	}
	st := &rc.seats[i]
	runSite := cond.ApplySiteInto(site, &st.overlay)
	if st.farm == nil {
		st.farm = replay.NewFarm(rc.sim, net, runSite, plan)
	} else {
		st.farm.Reset(rc.sim, net, runSite, plan)
	}
	st.farm.ThinkTime = cond.ThinkTime
	switch {
	case cond.ClientJitterFrac > 0:
		cfg.JitterFrac = cond.ClientJitterFrac
	case cond.ClientJitterFrac < 0: // scenario forces a deterministic client
		cfg.JitterFrac = 0
	}
	if st.ld == nil {
		st.ld = browser.New(rc.sim, st.farm, cfg)
	} else {
		st.ld.Reset(rc.sim, st.farm, cfg)
	}
	return st.ld
}

// applyFault dispatches one scheduled fault event onto the layer it
// targets: the emulated link, the server farm or the browser.
func (rc *RunContext) applyFault(e fault.Event) {
	switch e.Kind {
	case fault.KindLinkCut, fault.KindLinkDown:
		rc.net.CutLink()
	case fault.KindLinkUp:
		rc.net.ResumeLink()
	case fault.KindServerStall:
		rc.seats[0].farm.Stall(e.Dur)
	case fault.KindGoAway:
		rc.seats[0].farm.InjectGoAway()
	case fault.KindPushReset:
		rc.seats[0].farm.InjectPushResets()
	case fault.KindDisablePush:
		rc.seats[0].ld.DisablePush()
	}
}

// RunOnce performs a single page load of site under plan. All
// perturbation — link jitter, loss, server think time, third-party
// content scaling, client compute jitter — comes from the scenario's
// deterministic per-run derivation. It runs on a throwaway context;
// callers executing many runs should hold a RunContext and use
// RunOnceWith.
func (tb *Testbed) RunOnce(site *replay.Site, plan replay.Plan, run int) *RunResult {
	return tb.RunOnceWith(NewRunContext(), site, plan, run)
}

// RunOnceWith is RunOnce on a reusable context: seat 0 on the flat
// network. The returned result (including the embedded browser.Result
// and its slices) is owned by the context and valid only until the next
// run on rc; callers keeping more than scalars must copy them out
// before reusing the context.
func (tb *Testbed) RunOnceWith(rc *RunContext, site *replay.Site, plan replay.Plan, run int) *RunResult {
	seed := tb.Seed*1_000_003 + int64(run)*7919
	cond := &rc.cond
	tb.Scenario.DeriveInto(seed, cond)
	rc.seedSim(seed)
	if rc.net == nil {
		rc.net = netem.New(rc.sim, cond.Profile)
	} else {
		rc.net.Reset(cond.Profile)
	}
	ld := rc.wire(0, rc.net, cond, site, plan, tb.Browser)
	if cond.FaultsActive() {
		if rc.applyFn == nil {
			rc.applyFn = rc.applyFault
		}
		rc.inj.Reset(rc.sim, rc.applyFn)
		rc.inj.Arm(cond.Faults)
	}
	ld.Start()
	rc.sim.Run()
	farm := rc.seats[0].farm
	rc.res = RunResult{
		Result:          ld.Result(),
		WireBytesPushed: farm.BytesPushed,
		WirePushCount:   farm.PushCount,
	}
	return &rc.res
}

// Evaluation summarizes repeated runs of one (site, strategy) pair.
type Evaluation struct {
	Site     string
	Strategy string

	PLT metrics.Sample
	SI  metrics.Sample

	MedianPLT time.Duration
	MedianSI  time.Duration

	BytesPushed int64 // median over runs
	Completed   int
}

// Evaluate runs site under plan tb.Runs times, fanning the runs across
// tb.Jobs workers. Each run is deterministically seeded from its run
// index and executes on its worker's reusable RunContext; the scalar
// outcomes are extracted inside the worker (the context recycles the
// full Result on its next run) and aggregated in run order, so the
// output matches the sequential path exactly.
func (tb *Testbed) Evaluate(site *replay.Site, plan replay.Plan, name string) *Evaluation {
	ev := &Evaluation{Site: site.Name, Strategy: name}
	type runStat struct {
		plt, si   time.Duration
		pushed    int64
		completed bool
	}
	stats := collectWith(tb.workers(), tb.Runs, &runContexts, tb.ctx, func(rc *RunContext, i int) runStat {
		r := tb.RunOnceWith(rc, site, plan, i)
		return runStat{plt: r.PLT, si: r.SpeedIndex, pushed: r.WireBytesPushed, completed: r.Outcome == browser.OutcomeComplete}
	})
	pushed := make([]int64, 0, len(stats))
	for _, r := range stats {
		ev.PLT.Add(r.plt)
		ev.SI.Add(r.si)
		pushed = append(pushed, r.pushed)
		if r.completed {
			ev.Completed++
		}
	}
	ev.MedianPLT = ev.PLT.Median()
	ev.MedianSI = ev.SI.Median()
	ev.BytesPushed = metrics.MedianInt64(pushed)
	return ev
}

// EvaluateStrategy applies a strategy (site rewrite + plan) and runs it.
// The receiver is never mutated: baseline strategies that disable push
// act on a per-call copy of the testbed, so concurrent evaluations on a
// shared Testbed are safe — provided no run context is attached. The
// per-call copy shares the receiver's UseContext context (that reuse is
// the point of attaching one), so a testbed carrying a context must
// only be evaluated from one goroutine at a time; testbeds shared
// across goroutines must leave the context unset.
func (tb *Testbed) EvaluateStrategy(site *replay.Site, st strategy.Strategy, tr *strategy.Trace) *Evaluation {
	run, runSite, plan := tb.forStrategy(site, st, tr)
	ev := run.Evaluate(runSite, plan, st.Name())
	// The experiment drivers consume only the summary statistics, which
	// Compact freezes at their exact values before releasing the raw
	// per-run samples — the golden tables are unaffected, and a sweep's
	// resident memory stops scaling with runs. Callers needing the raw
	// samples use Evaluate directly.
	ev.PLT.Compact()
	ev.SI.Compact()
	return ev
}

// forStrategy applies st to site and returns what its runs load: a
// per-call copy of the testbed, with push off in the client when st is
// a no-push baseline, the site st serves and its push plan.
func (tb *Testbed) forStrategy(site *replay.Site, st strategy.Strategy, tr *strategy.Trace) (Testbed, *replay.Site, replay.Plan) {
	runSite, plan := st.Apply(site, tr)
	run := *tb
	if strategy.DisablesPush(st) {
		run.Browser.EnablePush = false
	}
	return run, runSite, plan
}

// Trace performs the paper's dependency-tracing step (Sec. 4.2): load
// the site without push `runs` times and record the subresource request
// orders for the majority vote. Like EvaluateStrategy it works on a
// per-call copy of the testbed and fans the trace loads across workers
// on reusable run contexts (the order lists are copied out before a
// context recycles its Result).
func (tb *Testbed) Trace(site *replay.Site, runs int) *strategy.Trace {
	probe, site, plan := tb.forStrategy(site, strategy.NoPush{}, nil)
	base := site.Base.String()
	orders := collectWith(tb.workers(), runs, &runContexts, tb.ctx, func(rc *RunContext, i int) []string {
		r := probe.RunOnceWith(rc, site, plan, 1000+i)
		var order []string
		for _, t := range r.Timings {
			if t.URL == base || t.Pushed {
				continue
			}
			order = append(order, t.URL)
		}
		return order
	})
	return &strategy.Trace{Orders: orders}
}
