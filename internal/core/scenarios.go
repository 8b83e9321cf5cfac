package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/replay"
	"repro/internal/scenario"
)

// ScenarioSweep answers the question the paper leaves open — "where
// does push actually help?" — by re-running the Fig. 3a / Fig. 6
// strategy comparison under each given measurement scenario. It emits
// one strategy-comparison table per scenario: every Sec. 5 strategy is
// evaluated against the no-push baseline on the random site set and
// summarized as improved-site fractions, median deltas and pushed
// bytes. Scenarios are validated up front; results are byte-identical
// for any worker-pool size. scenario.ByNames resolves scenarios by name.
func ScenarioSweep(scs []scenario.Scenario, scale ExperimentScale) ([]*Table, error) {
	return sweep(scs, scale, scenarioTable)
}

// sweep is the shape the scenario and fault sweeps share: every
// scenario is validated before anything runs, the random site set is
// generated once, and table renders one table per scenario on it.
func sweep(scs []scenario.Scenario, scale ExperimentScale,
	table func(scenario.Scenario, []*replay.Site, ExperimentScale) *Table) ([]*Table, error) {
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	sites := randomSites(scale)
	tables := make([]*Table, len(scs))
	for i, sc := range scs {
		tables[i] = table(sc, sites, scale)
	}
	return tables, nil
}

// scenarioTable runs the Sec. 5 strategy set against the no-push
// baseline on the given site set under one scenario.
func scenarioTable(scn scenario.Scenario, sites []*replay.Site, scale ExperimentScale) *Table {
	sts := PopularStrategies()
	evs := contrast(scale, scn, sites, sts, true)
	t := &Table{
		Title:  fmt.Sprintf("Scenario %s: strategy deltas vs no push (random set)", scn.Name),
		Header: []string{"strategy", "SI improved", "PLT improved", "median dSI (ms)", "median dPLT (ms)", "median KB pushed"},
		Notes:  []string{describeScenario(scn)},
	}
	for j := 1; j < len(sts); j++ {
		dPLT, dSI := medianDeltas(evs, j)
		var kb []int64
		for _, row := range evs {
			kb = append(kb, row[j].BytesPushed/1024)
		}
		t.add(append(deltaRow(sts[j].Name(), dSI, dPLT), countCell(metrics.MedianInt64(kb)))...)
	}
	return t
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
