package core

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestPopulationSweepGoldenByteIdentical pins the population tables
// byte-for-byte across worker-pool sizes: the streamed sketch cells
// must merge to identical state no matter which worker absorbed which
// (count, strategy, run) unit.
func TestPopulationSweepGoldenByteIdentical(t *testing.T) {
	var want string
	for _, jobs := range []int{1, 0} {
		sc := ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: jobs}
		tabs, err := PopulationSweep(scenario.Populations(), []int{1, 3}, sc)
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		var sb strings.Builder
		for _, tab := range tabs {
			sb.WriteString(tab.String())
		}
		got := sb.String()
		if want == "" {
			want = readGolden(t, "population_golden.txt", got)
		}
		if got != want {
			t.Errorf("population table diverged from golden at Jobs=%d: %s", jobs, diffLine(got, want))
		}
	}
}

// TestPopulationSweepAccounting checks row shape and completion
// accounting: every (strategy, count) row reports count x runs loads.
func TestPopulationSweepAccounting(t *testing.T) {
	sc := ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: 1}
	tabs, err := PopulationSweep([]scenario.Population{scenario.OfficeNAT()}, []int{1, 4}, sc)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(tabs) != 1 {
		t.Fatalf("tables: %d", len(tabs))
	}
	tab := tabs[0]
	if len(tab.Rows) != 3*2 {
		t.Fatalf("rows: %d, want 6 (3 strategies x 2 counts)", len(tab.Rows))
	}
	for _, st := range strategyTrio() {
		for _, n := range []struct {
			clients string
			loads   float64
		}{{"1", 2}, {"4", 8}} {
			if c := mustCell(t, tab, "complete", st.Name(), n.clients); c.Of != n.loads {
				t.Errorf("%s x %s: complete cell %v of %v loads, want %v", st.Name(), n.clients, c.X, c.Of, n.loads)
			}
		}
	}
}

// TestPopulationSweepValidation: bad inputs fail with clear errors, not
// panics deep in the topology.
func TestPopulationSweepValidation(t *testing.T) {
	sc := ExperimentScale{Sites: 1, Runs: 1, Seed: 1, Jobs: 1}
	pops := scenario.Populations()
	if _, err := PopulationSweep(nil, []int{1}, sc); err == nil {
		t.Error("empty population list accepted")
	}
	if _, err := PopulationSweep(pops, nil, sc); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := PopulationSweep(pops, []int{0}, sc); err == nil {
		t.Error("zero client count accepted")
	}
}
