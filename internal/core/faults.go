package core

import (
	"fmt"
	"time"

	"repro/internal/browser"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

// Recovery configuration every fault-sweep load runs under. The budget
// must clear a healthy fetch on the slowest profiled link (a satellite
// round trip is ~600ms, so a large resource legitimately takes seconds)
// while still resolving permanent failures well before the load
// horizon; transient faults (a flap, a stall) recover through
// retransmission and queue drain without ever tripping it.
const (
	faultResourceTimeout = 5 * time.Second
	faultMaxRetries      = 2
	faultRetryBackoff    = 250 * time.Millisecond
)

// faultStrategies is the push-strategy contrast the sweep reports under
// each fault family: the no-push baseline, naive push-all, and the
// paper's headline critical-path strategy.
func faultStrategies() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.NoPush{},
		strategy.PushAll{},
		strategy.PushCriticalOptimized{},
	}
}

// FaultSweep re-runs the push-strategy comparison under each scripted
// fault family (link flap, server stall, GOAWAY, push resets, push
// disable, permanent link cut — plus the fault-free baseline) and
// reports, per family and strategy, how loads terminate: outcome
// counts, the median PLT over every run, median terminally-failed
// resources and median wasted push bytes (dead-connection push bytes
// included). One table per scenario; output is byte-identical for any
// worker-pool size.
func FaultSweep(scs []scenario.Scenario, scale ExperimentScale) ([]*Table, error) {
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	sites := corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
	tables := make([]*Table, len(scs))
	for i, sc := range scs {
		tables[i] = faultTable(sc, sites, scale)
	}
	return tables, nil
}

// FaultSweepNames resolves library scenarios by name (nil or empty
// means every named scenario) and sweeps them.
func FaultSweepNames(names []string, scale ExperimentScale) ([]*Table, error) {
	var scs []scenario.Scenario
	if len(names) == 0 {
		scs = scenario.All()
	} else {
		for _, n := range names {
			sc, err := scenario.ByName(n)
			if err != nil {
				return nil, err
			}
			scs = append(scs, sc)
		}
	}
	return FaultSweep(scs, scale)
}

// faultRunStat is one run's terminal state, extracted inside the worker
// before the context recycles its Result.
type faultRunStat struct {
	outcome   browser.LoadOutcome
	plt       time.Duration
	failedRes int64
	wastedKB  int64
}

// evaluateFaulted is Evaluate for the fault sweep: same strategy
// application and run fan-out, but it keeps each run's LoadOutcome and
// failure accounting instead of collapsing to medians.
func (tb *Testbed) evaluateFaulted(site *replay.Site, st strategy.Strategy, tr *strategy.Trace) []faultRunStat {
	runSite, plan := st.Apply(site, tr)
	run := *tb
	switch st.(type) {
	case strategy.NoPush, strategy.NoPushOptimized:
		run.Browser.EnablePush = false
	}
	return collectWith(run.workers(), run.Runs, &runContexts, run.ctx, func(rc *RunContext, i int) faultRunStat {
		r := run.RunOnceWith(rc, runSite, plan, i)
		return faultRunStat{
			outcome:   r.Outcome,
			plt:       r.PLT,
			failedRes: int64(r.FailedResources),
			wastedKB:  r.BytesPushedWasted / 1024,
		}
	})
}

// faultUnit builds one site's evaluation unit for faultTable: every
// (fault family, strategy) cell's run stats, in family-major order.
func faultUnit(scn scenario.Scenario, sites []*replay.Site, scale ExperimentScale, b *budget) func(rc *RunContext, i int) [][]faultRunStat {
	fams := fault.Families()
	sts := faultStrategies()
	return func(rc *RunContext, i int) [][]faultRunStat {
		site := sites[i]
		// Dependency tracing stays fault-free: it models the paper's
		// separate measurement step, not the faulted page loads.
		tb0 := scale.newTestbedFor(scn, b)
		tb0.UseContext(rc)
		tr := tb0.Trace(site, min(5, scale.Runs))
		var cells [][]faultRunStat
		for _, fam := range fams {
			tb := scale.newTestbedFor(scn.WithFaults(fam.Spec), b)
			tb.UseContext(rc)
			tb.Browser.ResourceTimeout = faultResourceTimeout
			tb.Browser.MaxRetries = faultMaxRetries
			tb.Browser.RetryBackoff = faultRetryBackoff
			for _, st := range sts {
				cells = append(cells, tb.evaluateFaulted(site, st, tr))
			}
		}
		return cells
	}
}

// faultTable runs every (fault family, strategy) cell on the site set
// under one scenario. The site-level fan-out mirrors the other drivers:
// per-site work is self-contained and collected in site order, so the
// table is identical for any Jobs value.
func faultTable(scn scenario.Scenario, sites []*replay.Site, scale ExperimentScale) *Table {
	fams := fault.Families()
	sts := faultStrategies()
	b := newBudget(scale.Jobs)
	results := collectWith(b, len(sites), &runContexts, nil, faultUnit(scn, sites, scale, b))
	t := &Table{
		Title: fmt.Sprintf("Fault sweep %s: load outcomes under scripted faults", scn.Name),
		Header: []string{
			"fault", "strategy", "complete", "partial", "failed",
			"median PLT (ms)", "med failed res", "med wasted KB",
		},
		Notes: []string{
			describeScenario(scn),
			fmt.Sprintf("recovery: per-resource timeout %v, %d retries, backoff %v",
				faultResourceTimeout, faultMaxRetries, faultRetryBackoff),
		},
	}
	for fi, fam := range fams {
		desc := fam.Spec.Describe()
		if desc == "" {
			desc = "fault-free baseline"
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %s", fam.Name, desc))
		for sj, st := range sts {
			var complete, partial, failed int
			var plts metrics.Sample
			var failedRes, wastedKB []int64
			for _, cells := range results {
				for _, r := range cells[fi*len(sts)+sj] {
					switch r.outcome {
					case browser.OutcomeComplete:
						complete++
					case browser.OutcomePartial:
						partial++
					default:
						failed++
					}
					plts.Add(r.plt)
					failedRes = append(failedRes, r.failedRes)
					wastedKB = append(wastedKB, r.wastedKB)
				}
			}
			t.Rows = append(t.Rows, []string{
				fam.Name,
				st.Name(),
				fmt.Sprint(complete),
				fmt.Sprint(partial),
				fmt.Sprint(failed),
				fmt.Sprintf("%.1f", float64(plts.Median())/float64(time.Millisecond)),
				fmt.Sprint(metrics.MedianInt64(failedRes)),
				fmt.Sprint(metrics.MedianInt64(wastedKB)),
			})
		}
	}
	return t
}
