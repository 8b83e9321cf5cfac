package core

import (
	"strconv"
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

func TestFig1AdoptionTable(t *testing.T) {
	tab := Fig1Adoption(50_000, 1)
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	h2First, _ := strconv.Atoi(tab.Rows[0][2])
	h2Last, _ := strconv.Atoi(tab.Rows[11][2])
	if h2Last < h2First*17/10 {
		t.Fatalf("H2 adoption did not roughly double: %d -> %d", h2First, h2Last)
	}
	pushLast, _ := strconv.Atoi(tab.Rows[11][3])
	if pushLast == 0 || pushLast > h2Last/50 {
		t.Fatalf("push adoption implausible: %d vs h2 %d", pushLast, h2Last)
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
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	// Paper shape: interleaving is fastest and flat; no push grows with
	// HTML size.
	firstNo := parse(tab.Rows[0][1])
	lastNo := parse(tab.Rows[8][1])
	if lastNo <= firstNo {
		t.Fatalf("no-push SI did not grow with HTML size: %v -> %v", firstNo, lastNo)
	}
	for _, row := range tab.Rows {
		noPush, push, inter := parse(row[1]), parse(row[2]), parse(row[3])
		if inter > noPush || inter > push {
			t.Fatalf("interleaving not fastest at %sKB: no=%v push=%v inter=%v",
				row[0], noPush, push, inter)
		}
	}
	// Flatness: interleaving varies far less across sizes than no push.
	firstI, lastI := parse(tab.Rows[0][3]), parse(tab.Rows[8][3])
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
	topLow := tab.Rows[0][2]
	rndLow := tab.Rows[1][2]
	tl, _ := strconv.ParseFloat(strings.TrimSuffix(topLow, "%"), 64)
	rl, _ := strconv.ParseFloat(strings.TrimSuffix(rndLow, "%"), 64)
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
	var critRow []string
	for _, r := range tab.Rows {
		if r[1] == "push critical optimized" {
			critRow = r
		}
	}
	if critRow == nil {
		t.Fatal("push critical optimized row missing")
	}
	dSI, _ := strconv.ParseFloat(strings.TrimSuffix(critRow[2], "%"), 64)
	if dSI >= 0 {
		t.Fatalf("w1 push critical optimized dSI = %v%%, want improvement (<0)", dSI)
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
