package core

import (
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
	loads := float64(sc.Sites * sc.Runs)
	for _, fam := range fault.Families() {
		for _, st := range strategyTrio() {
			var n float64
			for _, col := range []string{"complete", "partial", "failed"} {
				n += mustCell(t, tabs[0], col, fam.Name, st.Name()).X
			}
			if n != loads {
				t.Fatalf("%s / %s accounts for %v loads, want %v", fam.Name, st.Name(), n, loads)
			}
			// The fault-free baseline must be all-complete: recovery
			// machinery may not perturb an unfaulted load.
			if fam.Name == "none" && mustCell(t, tabs[0], "complete", fam.Name, st.Name()).X != loads {
				t.Fatalf("fault-free baseline row not all-complete: %s", st.Name())
			}
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
