package core

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/replay"
	"repro/internal/scenario"
)

// TestScenarioSweepParallelMatchesSequential extends the engine's
// byte-identity contract to the cross-scenario driver: the sweep output
// must not depend on the worker-pool size.
func TestScenarioSweepParallelMatchesSequential(t *testing.T) {
	scs := []scenario.Scenario{scenario.DSL(), scenario.LTE()}
	render := func(jobs int) string {
		scale := ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: jobs}
		tabs, err := ScenarioSweep(scs, scale)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tab := range tabs {
			sb.WriteString(tab.String())
		}
		return sb.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("sweep differs across pool sizes:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Scenario dsl") || !strings.Contains(seq, "Scenario lte") {
		t.Fatalf("sweep missing per-scenario tables:\n%s", seq)
	}
}

func TestScenarioSweepRejectsInvalidScenario(t *testing.T) {
	bad := scenario.DSL()
	bad.Profile.MSS = 0
	if _, err := ScenarioSweep([]scenario.Scenario{bad}, SmallScale()); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// TestNegativeClientJitterDeterministicClient: a scenario with
// ClientJitterFrac < 0 forces browser jitter off, so on the loss-free
// DSL link different run indexes load byte-identically — client
// compute jitter was the only per-run randomness left.
func TestNegativeClientJitterDeterministicClient(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 5, 5)
	tb := NewTestbed()
	tb.Scenario = scenario.DSL().With(scenario.Variability{ClientJitterFrac: -1})
	a := tb.RunOnce(site, replay.NoPush(), 0)
	b := tb.RunOnce(site, replay.NoPush(), 1)
	if a.PLT != b.PLT || a.SpeedIndex != b.SpeedIndex {
		t.Fatalf("jitter-off runs diverged: %v/%v vs %v/%v", a.PLT, a.SpeedIndex, b.PLT, b.SpeedIndex)
	}
	// With the default (browser-config) jitter the same two runs differ.
	tb.Scenario = scenario.DSL()
	c := tb.RunOnce(site, replay.NoPush(), 0)
	d := tb.RunOnce(site, replay.NoPush(), 1)
	if c.PLT == d.PLT && c.SpeedIndex == d.SpeedIndex {
		t.Log("default-jitter runs identical (possible, jitter is small)")
	}
}
