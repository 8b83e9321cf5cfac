package core

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// The golden fixtures in testdata pin the experiment tables
// byte-for-byte, at Jobs=1 and Jobs=GOMAXPROCS, so neither the
// simulation core nor the parallel engine can silently change a single
// cell. Run under -race in CI. A deliberate simulation-order change
// (e.g. a different RNG or event scheduling) regenerates them with
// `go test -run Golden -update ./internal/core/`; review the diff
// before committing.

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from current output")

func readGolden(t *testing.T, name, got string) string {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile("testdata/"+name, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return string(b)
}

func diffLine(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return "line " + gl[i] + " != " + wl[i]
		}
	}
	return "length mismatch"
}

func TestFig2bGoldenByteIdentical(t *testing.T) {
	var want string
	for _, jobs := range []int{1, 0} {
		tab, err := Fig2bPushVsNoPush(ExperimentScale{Sites: 4, Runs: 3, Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatalf("Jobs=%d: %v", jobs, err)
		}
		got := tab.String()
		if want == "" {
			want = readGolden(t, "fig2b_golden.txt", got)
		}
		if got != want {
			t.Errorf("Fig2b table diverged from golden at Jobs=%d: %s", jobs, diffLine(got, want))
		}
	}
}

func TestScenarioSweepGoldenByteIdentical(t *testing.T) {
	var want string
	for _, jobs := range []int{1, 0} {
		sc := ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: jobs}
		tabs, err := ScenarioSweepNames([]string{"dsl", "satellite"}, sc)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tab := range tabs {
			sb.WriteString(tab.String())
		}
		got := sb.String()
		if want == "" {
			want = readGolden(t, "scenariosweep_golden.txt", got)
		}
		if got != want {
			t.Errorf("scenario sweep tables diverged from golden at Jobs=%d: %s", jobs, diffLine(got, want))
		}
	}
}

// TestFigureGoldens pins every figure driver that has no golden of its
// own above, at one small scale and at Jobs 1 and GOMAXPROCS.
func TestFigureGoldens(t *testing.T) {
	noErr := func(f func(ExperimentScale) *Table) func(ExperimentScale) (*Table, error) {
		return func(sc ExperimentScale) (*Table, error) { return f(sc), nil }
	}
	drivers := []struct {
		name string
		run  func(ExperimentScale) (*Table, error)
	}{
		{"fig1", noErr(func(ExperimentScale) *Table { return Fig1Adoption(2000, 1) })},
		{"fig2a", Fig2aVariability},
		{"pushable", noErr(PushableObjects)},
		{"fig3a", Fig3aPushAll},
		{"fig3b", Fig3bPushAmount},
		{"pushbytype", PushByTypeAnalysis},
		{"fig4", Fig4Synthetic},
		{"fig5", Fig5Interleaving},
		{"fig6", func(sc ExperimentScale) (*Table, error) { return Fig6Popular([]string{"w1", "w2", "w7"}, sc) }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var want string
			for _, jobs := range []int{1, 0} {
				tab, err := d.run(ExperimentScale{Sites: 4, Runs: 3, Seed: 1, Jobs: jobs})
				if err != nil {
					t.Fatalf("Jobs=%d: %v", jobs, err)
				}
				got := tab.String()
				if want == "" {
					want = readGolden(t, d.name+"_golden.txt", got)
				}
				if got != want {
					t.Errorf("table diverged from golden at Jobs=%d: %s", jobs, diffLine(got, want))
				}
			}
		})
	}
}
