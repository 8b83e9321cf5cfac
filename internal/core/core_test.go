package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

func TestRunOnceDeterministic(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 0, 5)
	tb := NewTestbed()
	a := tb.RunOnce(site, replay.NoPush(), 3)
	b := tb.RunOnce(site, replay.NoPush(), 3)
	if a.PLT != b.PLT || a.SpeedIndex != b.SpeedIndex {
		t.Fatalf("same run index diverged: %v/%v", a.PLT, b.PLT)
	}
	c := tb.RunOnce(site, replay.NoPush(), 4)
	if a.PLT == c.PLT && a.SpeedIndex == c.SpeedIndex {
		t.Log("different run indexes identical (possible, jitter is small)")
	}
}

func TestTestbedVsInternetVariability(t *testing.T) {
	// The core Fig. 2a property: run-to-run variability is much lower in
	// the testbed than in Internet mode.
	site := corpus.Generate(corpus.RandomProfile(), 1, 5)
	tb := NewTestbed()
	tb.Runs = 9
	evTB := tb.Evaluate(site, replay.NoPush(), "tb")
	tb.Scenario = scenario.Internet()
	evNet := tb.Evaluate(site, replay.NoPush(), "inet")
	if evTB.PLT.StdErr()*3 > evNet.PLT.StdErr() {
		t.Fatalf("testbed stderr %v not well below Internet stderr %v",
			evTB.PLT.StdErr(), evNet.PLT.StdErr())
	}
}

func TestEvaluateStrategyDisablesPushForBaselines(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 2, 5)
	tb := NewTestbed()
	tb.Runs = 2
	ev := tb.EvaluateStrategy(site, strategy.NoPush{}, nil)
	if ev.BytesPushed != 0 {
		t.Fatalf("no-push strategy pushed %d bytes", ev.BytesPushed)
	}
	// Push setting restored afterwards.
	if !tb.Browser.EnablePush {
		t.Fatal("EnablePush not restored")
	}
}

func TestTraceOrdersPlausible(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 3, 5)
	tb := NewTestbed()
	tr := tb.Trace(site, 3)
	if len(tr.Orders) != 3 {
		t.Fatalf("orders = %d", len(tr.Orders))
	}
	for _, order := range tr.Orders {
		if len(order) < 3 {
			t.Fatalf("trace order too short: %v", order)
		}
		for _, u := range order {
			if u == site.Base.String() {
				t.Fatal("base in trace order")
			}
		}
	}
	if len(tr.MajorityOrder()) == 0 {
		t.Fatal("majority order empty")
	}
}

func TestPushAllChangesWireStats(t *testing.T) {
	site := corpus.SyntheticSites()[1] // s2: small single-server blog
	tb := NewTestbed()
	tb.Runs = 3
	evNo := tb.EvaluateStrategy(site, strategy.NoPush{}, nil)
	evAll := tb.EvaluateStrategy(site, strategy.PushAll{}, nil)
	if evAll.BytesPushed == 0 {
		t.Fatal("push all pushed nothing")
	}
	if evNo.BytesPushed != 0 {
		t.Fatal("baseline pushed")
	}
	if evAll.Completed != tb.Runs || evNo.Completed != tb.Runs {
		t.Fatalf("incomplete runs: %d/%d", evAll.Completed, evNo.Completed)
	}
}

// mustCell reads one cell of tab by column and row labels, failing the test
// when it is missing.
func mustCell(t *testing.T, tab *Table, col string, key ...string) Cell {
	t.Helper()
	c, ok := tab.Cell(col, key...)
	if !ok {
		t.Fatalf("%s: no cell %q in row %q", tab.Title, col, key)
	}
	return c
}

func TestFig1AdoptionTable(t *testing.T) {
	tab := Fig1Adoption(50_000, 1)
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	h2First := mustCell(t, tab, "h2", "1").X
	h2Last := mustCell(t, tab, "h2", "12").X
	if h2Last < h2First*1.7 {
		t.Fatalf("H2 adoption did not roughly double: %v -> %v", h2First, h2Last)
	}
	pushLast := mustCell(t, tab, "push", "12").X
	if pushLast == 0 || pushLast > h2Last/50 {
		t.Fatalf("push adoption implausible: %v vs h2 %v", pushLast, h2Last)
	}
	if !strings.Contains(tab.String(), "Fig 1") {
		t.Fatal("table title missing")
	}
}

func TestFig5InterleavingShape(t *testing.T) {
	tab, err := Fig5Interleaving(ExperimentScale{Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	si := func(col, kb string) float64 { return mustCell(t, tab, col+" SI (ms)", kb).X }
	// Paper shape: interleaving is fastest and flat; no push grows with
	// HTML size.
	firstNo, lastNo := si("no push", "10"), si("no push", "90")
	if lastNo <= firstNo {
		t.Fatalf("no-push SI did not grow with HTML size: %v -> %v", firstNo, lastNo)
	}
	for _, k := range []string{"10", "20", "30", "40", "50", "60", "70", "80", "90"} {
		noPush, push, inter := si("no push", k), si("push", k), si("interleaving", k)
		if inter > noPush || inter > push {
			t.Fatalf("interleaving not fastest at %sKB: no=%v push=%v inter=%v",
				k, noPush, push, inter)
		}
	}
	// Flatness: interleaving varies far less across sizes than no push.
	firstI, lastI := si("interleaving", "10"), si("interleaving", "90")
	if (lastI-firstI)*2 > (lastNo - firstNo) {
		t.Fatalf("interleaving not flat: %v->%v vs no push %v->%v", firstI, lastI, firstNo, lastNo)
	}
}

func TestPushableObjectsTable(t *testing.T) {
	tab := PushableObjects(ExperimentScale{Sites: 40, Runs: 1, Seed: 1})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// top-100 must have a larger low-pushable share than random-100.
	tl := mustCell(t, tab, "<20% pushable", "top-100").X
	rl := mustCell(t, tab, "<20% pushable", "random-100").X
	if tl <= rl {
		t.Fatalf("top-100 low-pushable (%v) not above random-100 (%v)", tl, rl)
	}
}

func TestFig6SingleSite(t *testing.T) {
	// One representative site end-to-end through all six strategies.
	tab, err := Fig6Popular([]string{"w1"}, ExperimentScale{Sites: 1, Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 { // six strategies minus the baseline
		t.Fatalf("rows = %d: %v", len(tab.Rows), tab.Rows)
	}
	// w1 (huge HTML, blocking CSS) must improve with push critical
	// optimized.
	if dSI := mustCell(t, tab, "dSI", "w1", "push critical optimized").X; dSI >= 0 {
		t.Fatalf("w1 push critical optimized dSI = %v, want improvement (<0)", dSI)
	}
}

func TestScaleThirdPartyPreservesFirstParty(t *testing.T) {
	site := corpus.Generate(corpus.TopProfile(), 0, 5)
	tb := NewTestbed()
	tb.Scenario = scenario.Internet()
	r := tb.RunOnce(site, replay.NoPush(), 0)
	if r.PLT <= 0 {
		t.Fatalf("internet run PLT = %v", r.PLT)
	}
}

func TestEvaluationSamplesComplete(t *testing.T) {
	site := corpus.SyntheticSites()[8] // s9 docs: fast
	tb := NewTestbed()
	tb.Runs = 5
	ev := tb.Evaluate(site, replay.NoPush(), "x")
	if ev.PLT.N() != 5 || ev.SI.N() != 5 {
		t.Fatalf("sample sizes %d/%d", ev.PLT.N(), ev.SI.N())
	}
	if ev.MedianPLT <= 0 || ev.MedianPLT > 30*time.Second {
		t.Fatalf("median PLT %v", ev.MedianPLT)
	}
}
