package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/scenario"
)

// TestFaultSweepGoldenByteIdentical pins the fault-sweep table
// byte-for-byte across worker-pool sizes.
func TestFaultSweepGoldenByteIdentical(t *testing.T) {
	var want string
	for _, jobs := range []int{1, 0} {
		sc := ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: jobs}
		tabs, err := FaultSweep([]scenario.Scenario{scenario.DSL()}, sc)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tab := range tabs {
			sb.WriteString(tab.String())
		}
		got := sb.String()
		if want == "" {
			want = readGolden(t, "faultsweep_golden.txt", got)
		}
		if got != want {
			t.Errorf("fault sweep diverged from golden at Jobs=%d: %s", jobs, diffLine(got, want))
		}
	}
}

// TestFaultSweepTerminatesEveryLoad: outcome counts must account for
// every run — a hung or unclassified load would drop out of the table.
func TestFaultSweepTerminatesEveryLoad(t *testing.T) {
	sc := ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: 1}
	tabs, err := FaultSweep([]scenario.Scenario{scenario.DSL()}, sc)
	if err != nil {
		t.Fatal(err)
	}
	nStrategies := len(strategyTrio())
	if rows := len(tabs[0].Rows); rows != len(fault.Families())*nStrategies {
		t.Fatalf("got %d rows, want one per (family, strategy)", rows)
	}
	for _, row := range tabs[0].Rows {
		var n int
		for _, cell := range row[2:5] { // complete, partial, failed
			v, err := strconv.Atoi(cell)
			if err != nil {
				t.Fatalf("bad count %q in row %v", cell, row)
			}
			n += v
		}
		if n != sc.Sites*sc.Runs {
			t.Fatalf("row %v accounts for %d loads, want %d", row, n, sc.Sites*sc.Runs)
		}
	}
	// The fault-free baseline rows must be all-complete: recovery
	// machinery may not perturb an unfaulted load.
	for _, row := range tabs[0].Rows[:nStrategies] {
		if row[0] != "none" || row[2] != "4" || row[4] != "0" {
			t.Fatalf("fault-free baseline row not all-complete: %v", row)
		}
	}
}

func TestFaultSweepRejectsInvalidScenario(t *testing.T) {
	bad := scenario.DSL()
	bad.Faults.FlapAt = 100 // FlapAt without FlapDown
	if _, err := FaultSweep([]scenario.Scenario{bad}, SmallScale()); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}
