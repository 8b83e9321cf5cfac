package core

import (
	"fmt"
	"time"

	"repro/internal/browser"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/scenario"
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

// FaultSweep re-runs the push-strategy comparison under each scripted
// fault family (link flap, server stall, GOAWAY, push resets, push
// disable, permanent link cut — plus the fault-free baseline) and
// reports, per family and strategy, how loads terminate: outcome
// counts, the median PLT over every run, median terminally-failed
// resources and median wasted push bytes (dead-connection push bytes
// included). One table per scenario; output is byte-identical for any
// worker-pool size. scenario.ByNames resolves scenarios by name.
func FaultSweep(scs []scenario.Scenario, scale ExperimentScale) ([]*Table, error) {
	return sweep(scs, scale, faultTable)
}

// faultRunStat is one run's terminal state, extracted inside the worker
// before the context recycles its Result.
type faultRunStat struct {
	outcome   browser.LoadOutcome
	plt       time.Duration
	failedRes int64
	wastedKB  int64
}

// evaluateFaulted is Evaluate for the fault sweep: the same run fan-out
// over a strategy forStrategy has already applied, but it keeps each
// run's LoadOutcome and failure accounting instead of collapsing to
// medians.
func evaluateFaulted(run *Testbed, site *replay.Site, plan replay.Plan) []faultRunStat {
	return collectWith(run.workers(), run.Runs, &runContexts, run.ctx, func(rc *RunContext, i int) faultRunStat {
		r := run.RunOnceWith(rc, site, plan, i)
		return faultRunStat{
			outcome:   r.Outcome,
			plt:       r.PLT,
			failedRes: int64(r.FailedResources),
			wastedKB:  r.BytesPushedWasted / 1024,
		}
	})
}

// faultTable runs every (fault family, strategy) cell on the site set
// under one scenario. A site's unit traces it once, fault-free and
// without the recovery budget — the trace models the paper's separate
// measurement step, not the faulted page loads. It then applies each
// strategy once under the recovery configuration, so a plan is lowered
// and pre-encoded once per site, and runs every cell in family-major
// order, each family changing only the applied testbed's fault regime.
func faultTable(scn scenario.Scenario, sites []*replay.Site, scale ExperimentScale) *Table {
	fams := fault.Families()
	sts := strategyTrio()
	results := siteJob(scale, scn, len(sites), func(tb *Testbed, i int) [][]faultRunStat {
		tr := tb.Trace(sites[i], min(5, scale.Runs))
		tb.Browser.ResourceTimeout = faultResourceTimeout
		tb.Browser.MaxRetries = faultMaxRetries
		tb.Browser.RetryBackoff = faultRetryBackoff
		type applied struct {
			run  Testbed
			site *replay.Site
			plan replay.Plan
		}
		as := make([]applied, len(sts))
		for j, st := range sts {
			run, runSite, plan := tb.forStrategy(sites[i], st, tr)
			as[j] = applied{run, runSite, plan}
		}
		cells := make([][]faultRunStat, 0, len(fams)*len(sts))
		for _, fam := range fams {
			for j := range as {
				a := &as[j]
				a.run.Scenario = scn.WithFaults(fam.Spec)
				cells = append(cells, evaluateFaulted(&a.run, a.site, a.plan))
			}
		}
		return cells
	})
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
			t.add(
				textCell(fam.Name),
				textCell(st.Name()),
				countCell(complete),
				countCell(partial),
				countCell(failed),
				ms1Cell(millis(plts.Median())),
				countCell(metrics.MedianInt64(failedRes)),
				countCell(metrics.MedianInt64(wastedKB)),
			)
		}
	}
	return t
}
