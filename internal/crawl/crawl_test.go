package crawl

import "testing"

func TestPopulationCalibration(t *testing.T) {
	const n = 100_000 // 10% of the Alexa 1M, counts scale accordingly
	pop := DefaultPopulation(n, 1)
	sc := NewScanner(1, 0)
	first := sc.scan(pop, 1)
	last := sc.scan(pop, Months)
	// Calibration: 120K->240K H2 and 400->800 push at full scale, /10 here.
	if first.H2Count < 11_000 || first.H2Count > 13_000 {
		t.Fatalf("month 1 H2 = %d, want ~12000", first.H2Count)
	}
	if last.H2Count < 22_000 || last.H2Count > 26_000 {
		t.Fatalf("month 12 H2 = %d, want ~24000", last.H2Count)
	}
	if first.PushCount < 30 || first.PushCount > 60 {
		t.Fatalf("month 1 push = %d, want ~40", first.PushCount)
	}
	if last.PushCount < 70 || last.PushCount > 100 {
		t.Fatalf("month 12 push = %d, want ~80", last.PushCount)
	}
	// Push adoption orders of magnitude below H2 (the paper's point).
	if last.PushCount*100 > last.H2Count {
		t.Fatalf("push adoption not orders of magnitude lower: %d vs %d", last.PushCount, last.H2Count)
	}
}

func TestAdoptionMonotone(t *testing.T) {
	pop := DefaultPopulation(20_000, 2)
	sc := NewScanner(2, 0)
	series := sc.Study(pop)
	if len(series) != Months {
		t.Fatalf("series length %d", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].H2Count < series[i-1].H2Count {
			t.Fatalf("H2 count decreased at month %d", i+1)
		}
		if series[i].PushCount < series[i-1].PushCount {
			t.Fatalf("push count decreased at month %d", i+1)
		}
	}
}

func TestPushRequiresH2(t *testing.T) {
	pop := DefaultPopulation(50_000, 3)
	for _, d := range pop {
		if d.AdoptPush != 0 {
			if d.AdoptH2 == 0 || d.AdoptPush < d.AdoptH2 {
				t.Fatalf("domain pushes before speaking H2: %+v", d)
			}
		}
	}
}

func TestScannerFailures(t *testing.T) {
	pop := DefaultPopulation(10_000, 4)
	sc := NewScanner(4, 0.05)
	res := sc.scan(pop, 6)
	if res.Probed >= len(pop) {
		t.Fatalf("no failures: probed %d of %d", res.Probed, len(pop))
	}
	if res.Probed < int(float64(len(pop))*0.9) {
		t.Fatalf("too many failures: %d", res.Probed)
	}
}

func TestProbeSemantics(t *testing.T) {
	d := domain{Rank: 1, AdoptH2: 3, AdoptPush: 5}
	if d.server(2).ALPNH2 {
		t.Fatal("H2 before adoption")
	}
	if !d.server(3).ALPNH2 {
		t.Fatal("no H2 at adoption month")
	}
	if d.server(4).UsesPush {
		t.Fatal("push before adoption")
	}
	if !d.server(12).UsesPush {
		t.Fatal("no push after adoption")
	}
	never := domain{Rank: 2}
	if never.server(12).ALPNH2 || never.server(12).UsesPush {
		t.Fatal("non-adopter reports support")
	}
}

func TestDeterministicPopulation(t *testing.T) {
	a := DefaultPopulation(5000, 9)
	b := DefaultPopulation(5000, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("population differs at %d", i)
		}
	}
}
