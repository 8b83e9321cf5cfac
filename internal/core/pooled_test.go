package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/corpus"
	"repro/internal/scenario"
)

// drainFreeLists empties the engine's free list, so the next pool
// builds every worker's state from nothing — what every pool did before
// the engine owned the state. Test-only: nothing outside tests has a
// reason to throw warm state away.
func drainFreeLists() {
	runContexts.mu.Lock()
	runContexts.idle = nil
	runContexts.mu.Unlock()
}

// driverFamily renders one driver family at the scale its golden
// fixture pins.
type driverFamily struct {
	name, golden string
	render       func(jobs int) ([]*Table, error)
}

// figureFamily is a figure driver at the scale TestFigureGoldens pins.
func figureFamily(name string, run func(ExperimentScale) (*Table, error)) driverFamily {
	return driverFamily{name, name + "_golden.txt", func(jobs int) ([]*Table, error) {
		tab, err := run(ExperimentScale{Sites: 4, Runs: 3, Seed: 1, Jobs: jobs})
		return []*Table{tab}, err
	}}
}

// driverFamilies is every driver that runs on the engine's pooled
// state: the three sweeps and each figure on the shared site job.
var driverFamilies = []driverFamily{
	figureFamily("fig2b", Fig2bPushVsNoPush),
	{"scenarios", "scenariosweep_golden.txt", func(jobs int) ([]*Table, error) {
		return ScenarioSweep([]scenario.Scenario{scenario.DSL(), scenario.Satellite()}, ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: jobs})
	}},
	{"faults", "faultsweep_golden.txt", func(jobs int) ([]*Table, error) {
		return FaultSweep([]scenario.Scenario{scenario.DSL()}, ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: jobs})
	}},
	{"population", "population_golden.txt", func(jobs int) ([]*Table, error) {
		return PopulationSweep(scenario.Populations(), []int{1, 3}, ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: jobs})
	}},
	figureFamily("fig2a", Fig2aVariability),
	figureFamily("fig3a", Fig3aPushAll),
	figureFamily("fig3b", Fig3bPushAmount),
	figureFamily("pushbytype", PushByTypeAnalysis),
	figureFamily("fig4", Fig4Synthetic),
	figureFamily("fig5", Fig5Interleaving),
	figureFamily("fig6", fig6Golden),
}

// TestPooledStateAcrossDrivers runs every driver family back to back in
// one process, in two orders, without ever draining the free list in
// between: each family then simulates on contexts — flat networks,
// topologies and seats — that another family (other sites, other links,
// fault injectors, populations) left behind. Every table must equal
// the one rendered on a drained engine and the golden fixture, at Jobs
// 1, 2, 3 and 8: narrower than, as wide as and wider than a table's
// site-level fan-out, so a site's run-level fan-outs go from never
// getting a second worker to getting most of the budget. CI runs it
// under -race, which is what catches a state reaching two goroutines (a
// lent context released to the list, a state released while still in
// use).
func TestPooledStateAcrossDrivers(t *testing.T) {
	render := func(t *testing.T, family int, jobs int) string {
		t.Helper()
		tabs, err := driverFamilies[family].render(jobs)
		if err != nil {
			t.Fatalf("%s: %v", driverFamilies[family].name, err)
		}
		var sb strings.Builder
		for _, tab := range tabs {
			sb.WriteString(tab.String())
		}
		return sb.String()
	}
	for _, jobs := range []int{1, 2, 3, 8} {
		want := make([]string, len(driverFamilies))
		for f, fam := range driverFamilies {
			drainFreeLists()
			want[f] = render(t, f, jobs)
			if golden := readGolden(t, fam.golden, want[f]); want[f] != golden {
				t.Fatalf("jobs=%d %s on a drained engine diverged from its golden: %s", jobs, fam.name, diffLine(want[f], golden))
			}
		}
		drainFreeLists()
		// Forward, then backward with the population and scenario sweeps
		// once more at the end.
		var forward, backward []int
		for f := range driverFamilies {
			forward = append(forward, f)
			backward = append([]int{f}, backward...)
		}
		for _, order := range [][]int{forward, append(backward, 3, 1)} {
			for _, f := range order {
				if got := render(t, f, jobs); got != want[f] {
					t.Errorf("jobs=%d order %v: %s on warm pooled state diverged from the drained run: %s",
						jobs, order, driverFamilies[f].name, diffLine(got, want[f]))
				}
			}
		}
		// The premise: the runs above did share state through the list.
		// The list keeps as many contexts idle as the widest budget so far
		// has slots, not as many as the machine has CPUs.
		if idle, widest := len(runContexts.idle), runContexts.widest; widest < jobs || idle == 0 || idle > widest {
			t.Errorf("jobs=%d: %d run contexts idle after the drivers returned, widest budget recorded %d", jobs, idle, widest)
		}
	}
}

// TestSeatReuseAcrossPresets reuses one RunContext for a 64-client
// household unit, a 16-client cell-sector unit, a single-client load on
// the flat network and the household unit again — other shared link,
// other access links, seats shrinking and growing back, seat 0 moving
// from a topology client to the flat network and back — and requires
// every client's outcome, and the unit's cell, to equal the same load
// on a context built from nothing.
func TestSeatReuseAcrossPresets(t *testing.T) {
	sites := corpus.GenerateSet(corpus.RandomProfile(), 2, 1)
	prep := populationPrep(strategyTrio(), sites)
	scale := ExperimentScale{Sites: 2, Runs: 2, Seed: 1}
	type outcome struct {
		cell    popCell
		plt, si []time.Duration
		outcome []browser.LoadOutcome
	}
	unit := func(rc *RunContext, preset string, clients, u int) outcome {
		t.Helper()
		pop, err := scenario.PopulationByName(preset)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{cell: popUnit(pop, []int{clients}, 0, prep, scale)(rc, u)}
		for i := 0; i < clients; i++ {
			r := rc.seats[i].ld.Result()
			out.plt = append(out.plt, r.PLT)
			out.si = append(out.si, r.SpeedIndex)
			out.outcome = append(out.outcome, r.Outcome)
		}
		return out
	}
	// The single-client step loads push all's first site under the
	// internet scenario, whose third-party scaling exercises the seat's
	// overlay scratch.
	single := NewTestbed()
	single.Scenario = scenario.Internet()
	single.Browser = prep.cfgs[1]
	warm := NewRunContext()
	for step, tc := range []struct {
		preset  string
		clients int // 0: a single-client load on the flat network
		unit    int // strategy-major: units 2..3 are push all, 4..5 push critical optimized; a single-client load's run index
	}{
		{"household", 64, 2},
		{"cell-sector", 16, 5},
		{"", 0, 1},
		{"household", 64, 2},
		{"household", 64, 3},
	} {
		if tc.clients == 0 {
			got := single.RunOnceWith(warm, prep.applied[1][0], prep.plans[1][0], tc.unit)
			want := single.RunOnceWith(NewRunContext(), prep.applied[1][0], prep.plans[1][0], tc.unit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (single client, run %d): reused context diverged from a fresh one\nreused: %+v\nfresh:  %+v",
					step, tc.unit, got.Result, want.Result)
			}
			continue
		}
		got := unit(warm, tc.preset, tc.clients, tc.unit)
		want := unit(NewRunContext(), tc.preset, tc.clients, tc.unit)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s, %d clients, unit %d): reused context diverged from a fresh one\nreused: %+v\nfresh:  %+v",
				step, tc.preset, tc.clients, tc.unit, got, want)
		}
		if got.cell.loads != int64(tc.clients) {
			t.Fatalf("step %d: cell counts %d loads, want %d", step, got.cell.loads, tc.clients)
		}
	}
}
