package core

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
	"time"
)

// ScenarioSweep answers the question the paper leaves open — "where
// does push actually help?" — by re-running the Fig. 3a / Fig. 6
// strategy comparison under each given measurement scenario. It emits
// one strategy-comparison table per scenario: every Sec. 5 strategy is
// evaluated against the no-push baseline on the random site set and
// summarized as improved-site fractions, median deltas and pushed
// bytes. Scenarios are validated up front; results are byte-identical
// for any worker-pool size.
func ScenarioSweep(scs []scenario.Scenario, scale ExperimentScale) ([]*Table, error) {
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	sites := corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
	tables := make([]*Table, len(scs))
	for i, sc := range scs {
		t, err := scenarioTable(sc, sites, scale)
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	return tables, nil
}

// ScenarioSweepNames resolves library scenarios by name (nil or empty
// means every named scenario) and sweeps them.
func ScenarioSweepNames(names []string, scale ExperimentScale) ([]*Table, error) {
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
	return ScenarioSweep(scs, scale)
}

// contrastStrategies is the Sec. 5 strategy set minus the no-push
// baseline every scenario table contrasts against. Shared by the
// parent-side aggregation and the worker-side unit, which must agree
// on column order.
func contrastStrategies() []strategy.Strategy {
	var sts []strategy.Strategy
	for _, st := range PopularStrategies() {
		if _, ok := st.(strategy.NoPush); !ok {
			sts = append(sts, st)
		}
	}
	return sts
}

// siteResult is one site's scenario contrast: per-strategy deltas in
// contrastStrategies order.
type siteResult struct {
	dPLT, dSI []float64 // per strategy, ms
	pushedKB  []int64   // per strategy
}

// scenarioUnit builds one site's evaluation unit for scenarioTable.
func scenarioUnit(scn scenario.Scenario, sites []*replay.Site, scale ExperimentScale, b *budget) func(rc *RunContext, i int) siteResult {
	sts := contrastStrategies()
	return func(rc *RunContext, i int) siteResult {
		site := sites[i]
		tb := scale.newTestbedFor(scn, b)
		tb.UseContext(rc)
		tr := tb.Trace(site, min(5, scale.Runs))
		base := tb.EvaluateStrategy(site, strategy.NoPush{}, nil)
		var res siteResult
		for _, st := range sts {
			ev := tb.EvaluateStrategy(site, st, tr)
			res.dPLT = append(res.dPLT, float64(ev.MedianPLT-base.MedianPLT)/float64(time.Millisecond))
			res.dSI = append(res.dSI, float64(ev.MedianSI-base.MedianSI)/float64(time.Millisecond))
			res.pushedKB = append(res.pushedKB, ev.BytesPushed/1024)
		}
		return res
	}
}

// scenarioTable runs the Sec. 5 strategy set against the no-push
// baseline on the given site set under one scenario. The site-level
// fan-out mirrors the figure drivers: per-site work is self-contained
// and collected in site order, so the table is identical for any Jobs.
func scenarioTable(scn scenario.Scenario, sites []*replay.Site, scale ExperimentScale) (*Table, error) {
	sts := contrastStrategies()
	b := newBudget(scale.Jobs)
	unit := scenarioUnit(scn, sites, scale, b)
	results, err := scenarioJob.collect(scale,
		scenarioParams{Scn: scn, Scale: scaleParams(scale)},
		len(sites), func() []siteResult {
			return collectWith(b, len(sites), &runContexts, nil, unit)
		})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Scenario %s: strategy deltas vs no push (random set)", scn.Name),
		Header: []string{"strategy", "SI improved", "PLT improved", "median dSI (ms)", "median dPLT (ms)", "median KB pushed"},
		Notes:  []string{describeScenario(scn)},
	}
	for j, st := range sts {
		var dSI, dPLT []float64
		var kb []int64
		for _, r := range results {
			dSI = append(dSI, r.dSI[j])
			dPLT = append(dPLT, r.dPLT[j])
			kb = append(kb, r.pushedKB[j])
		}
		t.Rows = append(t.Rows, []string{
			st.Name(),
			pct(metrics.FractionBelow(dSI, 0)),
			pct(metrics.FractionBelow(dPLT, 0)),
			fmt.Sprintf("%.1f", metrics.MedianFloat64(dSI)),
			fmt.Sprintf("%.1f", metrics.MedianFloat64(dPLT)),
			fmt.Sprint(metrics.MedianInt64(kb)),
		})
	}
	return t, nil
}

// describeScenario renders the link parameters for the table notes,
// plus the per-run perturbations for scenarios whose variability model
// redraws them (the base values alone would misread as a static link).
func describeScenario(sc scenario.Scenario) string {
	p := sc.Profile
	note := fmt.Sprintf("%s — %g/%g Mbit/s, RTT %v, loss %.2f%%, iw %d",
		sc.Info,
		float64(p.DownRate)/float64(netem.Mbps), float64(p.UpRate)/float64(netem.Mbps),
		p.RTT, p.LossRate*100, p.InitialCwnd)
	if v := sc.Vary.Describe(); v != "" {
		note += "; per-run: " + v
	}
	return note
}
