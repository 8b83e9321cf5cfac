package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Spans are recorded from outside the program, around the calls the
// harness makes into each layer's public functions; spans inside the
// layers are a later change. They stay in memory until the run ends.

// span is one timed call. parent indexes the span that caused it (-1 at
// the root); load identifies the page load all its spans share.
type span struct {
	name       string
	start, end time.Duration // host time since the tracer's epoch
	parent     int
	load       int
	// counts are the numbers available at this boundary (events executed,
	// requests issued, ...), recorded where the work happens.
	counts map[string]int64
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, load int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, load: load, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.epoch) }

// call records fn as a child span of parent.
func (t *tracer) call(name string, parent int, fn func()) int {
	i := t.begin(name, parent, t.spans[parent].load)
	fn()
	t.end(i)
	return i
}

func (s *span) dur() time.Duration { return s.end - s.start }

// Span names: the layer boundary each one times.
const (
	spanLoad        = "core.load"
	spanDerive      = "scenario.derive"
	spanSimReset    = "sim.reset"
	spanNetReset    = "netem.reset"
	spanApplySite   = "scenario.apply_site"
	spanFarmReset   = "replay.farm_reset"
	spanLoaderReset = "browser.loader_reset"
	spanStart       = "browser.start"
	spanRun         = "sim.run"
	spanResult      = "browser.result"
)

// composer re-composes one page load from the layers' public
// constructors, step for step as core.Testbed.RunOnceWith does on a
// plain (fork-less, fault-free) run context. It owns the same pooled
// state a core.RunContext does.
type composer struct {
	sim     *sim.Sim
	net     *netem.Network
	farm    *replay.Farm
	ld      *browser.Loader
	overlay scenario.SiteScratch
}

// load performs one traced page load and returns the loader's result
// (owned by the composer until the next load) and the events executed.
func (c *composer) load(t *tracer, id int, tb *core.Testbed, site *replay.Site, plan replay.Plan, run int) (*browser.Result, int) {
	root := t.begin(spanLoad, -1, id)
	seed := tb.Seed*1_000_003 + int64(run)*7919
	var cond *scenario.Conditions
	t.call(spanDerive, root, func() { cond = tb.Scenario.Derive(seed) })
	cfg := tb.Browser
	switch {
	case cond.ClientJitterFrac > 0:
		cfg.JitterFrac = cond.ClientJitterFrac
	case cond.ClientJitterFrac < 0:
		cfg.JitterFrac = 0
	}
	if c.sim == nil {
		t.call(spanSimReset, root, func() { c.sim = sim.New(seed) })
		t.call(spanNetReset, root, func() { c.net = netem.New(c.sim, cond.Profile) })
	} else {
		t.call(spanSimReset, root, func() { c.sim.Reset(seed) })
		t.call(spanNetReset, root, func() { c.net.Reset(cond.Profile) })
	}
	var runSite *replay.Site
	t.call(spanApplySite, root, func() { runSite = cond.ApplySiteInto(site, &c.overlay) })
	t.call(spanFarmReset, root, func() {
		if c.farm == nil {
			c.farm = replay.NewFarm(c.sim, c.net, runSite, plan)
		} else {
			c.farm.Reset(c.sim, c.net, runSite, plan)
		}
		c.farm.ThinkTime = cond.ThinkTime
	})
	t.call(spanLoaderReset, root, func() {
		if c.ld == nil {
			c.ld = browser.New(c.sim, c.farm, cfg)
		} else {
			c.ld.Reset(c.sim, c.farm, cfg)
		}
	})
	t.call(spanStart, root, c.ld.Start)
	events := 0
	runSpan := t.call(spanRun, root, func() { events = c.sim.Run() })
	var res *browser.Result
	resSpan := t.call(spanResult, root, func() { res = c.ld.Result() })
	t.end(root)
	t.spans[runSpan].counts = map[string]int64{
		"events": int64(events),
		"drops":  c.net.Drops(),
	}
	t.spans[resSpan].counts = map[string]int64{
		"requests":            int64(res.Requests),
		"conns":               int64(res.Conns),
		"bytes_pushed_used":   res.BytesPushedUsed,
		"bytes_pushed_wasted": res.BytesPushedWasted,
	}
	return res, events
}

// spanStats reduces a trace to per-name medians and the load spans'
// self time (the load span minus what its children cover).
type spanStats struct {
	byName   map[string][]float64 // durations in seconds
	selfLoad []float64
}

func (t *tracer) stats() spanStats {
	st := spanStats{byName: map[string][]float64{}}
	children := map[int]time.Duration{}
	for _, s := range t.spans {
		st.byName[s.name] = append(st.byName[s.name], s.dur().Seconds())
		if s.parent >= 0 {
			children[s.parent] += s.dur()
		}
	}
	for i, s := range t.spans {
		if s.parent < 0 {
			st.selfLoad = append(st.selfLoad, (s.dur() - children[i]).Seconds())
		}
	}
	return st
}

func (st spanStats) sum(name string) float64 {
	total := 0.0
	for _, d := range st.byName[name] {
		total += d
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON. Nesting
// is by time on one thread; args carry the load id, the parent span and
// the boundary counts.
func (t *tracer) writeChromeTrace(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"load": s.load}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		for k, v := range s.counts {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: args,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{"displayTimeUnit": "ns", "traceEvents": events}); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// traceScenarios are the links the traced run composes loads under: the
// paper's lossless DSL line and the lossy one that drives netem's
// retransmit path.
var traceScenarios = []string{"dsl", "wifi-lossy"}

// tracedRun is what tracedLoads produced: the spans, the counts of each
// composed load, and the host time of the composed loads and of the
// RunOnceWith loads they were checked against (their difference is the
// tracing overhead).
type tracedRun struct {
	trace                 *tracer
	loads                 []tracedLoad
	composedS, referenceS float64
}

// tracedLoads runs the pageload-warm matrix through the composer under
// each trace scenario, passes times over, asserting on every load that
// the composition reproduces core.Testbed.RunOnceWith.
func tracedLoads(seed int64, passes int) (*tracedRun, error) {
	inputs, err := warmInputs(seed, corpusSeed)
	if err != nil {
		return nil, err
	}
	run := &tracedRun{trace: newTracer()}
	var c composer
	rc := core.NewRunContext()
	id := 0
	for _, name := range traceScenarios {
		scs, err := seededScenarios([]string{name}, seed)
		if err != nil {
			return nil, err
		}
		for pass := 0; pass < passes; pass++ {
			for _, in := range inputs {
				tb := *in.tb
				tb.Scenario = scs[0]
				for runIdx := 0; runIdx < warmRunIndices; runIdx++ {
					t0 := time.Now()
					want := tb.RunOnceWith(rc, in.site, in.plan, runIdx)
					wantDigest := loadDigest(nil, want.Result)
					t1 := time.Now()
					got, events := c.load(run.trace, id, &tb, in.site, in.plan, runIdx)
					t2 := time.Now()
					run.referenceS += t1.Sub(t0).Seconds()
					run.composedS += t2.Sub(t1).Seconds()
					if !bytes.Equal(loadDigest(nil, got), wantDigest) {
						return nil, fmt.Errorf("composed load %d (%s, %s, run %d) differs from RunOnceWith: PLT %v vs %v, SpeedIndex %v vs %v",
							id, name, in.site.Name, runIdx, got.PLT, want.PLT, got.SpeedIndex, want.SpeedIndex)
					}
					run.loads = append(run.loads, tracedLoad{
						pushAll: in.pushAll, events: events,
						requests: got.Requests, conns: got.Conns,
						pushedUsed: got.BytesPushedUsed, pushedWasted: got.BytesPushedWasted,
					})
					id++
				}
			}
		}
	}
	return run, nil
}

// tracedLoad is the counts one composed load produced.
type tracedLoad struct {
	pushAll                  bool
	events, requests, conns  int
	pushedUsed, pushedWasted int64
}
