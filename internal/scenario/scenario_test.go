package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netem"
	"repro/internal/replay"
)

// TestNamedScenariosValidate is the library's contract: every shipped
// scenario validates, names are unique and ByName round-trips.
func TestNamedScenariosValidate(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range All() {
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %q invalid: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		got, err := ByName(sc.Name)
		if err != nil || got.Name != sc.Name {
			t.Errorf("ByName(%q) = %v, %v", sc.Name, got.Name, err)
		}
	}
	if len(seen) < 7 {
		t.Fatalf("library has %d scenarios, want >= 7", len(seen))
	}
	if _, err := ByName("dialup"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestByNamesResolves: scenarios and population presets resolve in the
// order given, nil and empty both mean all, and an unknown name is
// rejected with the single-name error.
func TestByNamesResolves(t *testing.T) {
	scs, err := ByNames([]string{"satellite", "fiber", "dsl"})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 || scs[0].Name != "satellite" || scs[1].Name != "fiber" || scs[2].Name != "dsl" {
		t.Fatalf("ByNames kept no order: %v", scs)
	}
	pops, err := PopulationsByNames([]string{"office-nat", "household"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pops) != 2 || pops[0].Name != "office-nat" || pops[1].Name != "household" {
		t.Fatalf("PopulationsByNames kept no order: %v", pops)
	}
	for _, names := range [][]string{nil, {}} {
		if scs, err := ByNames(names); err != nil || len(scs) != len(All()) {
			t.Errorf("ByNames(%v) = %d scenarios, %v; want all %d", names, len(scs), err, len(All()))
		}
		if pops, err := PopulationsByNames(names); err != nil || len(pops) != len(Populations()) {
			t.Errorf("PopulationsByNames(%v) = %d presets, %v; want all %d", names, len(pops), err, len(Populations()))
		}
	}
	_, want := ByName("dialup")
	if _, err := ByNames([]string{"dsl", "dialup"}); err == nil || err.Error() != want.Error() {
		t.Errorf("ByNames with an unknown name: %v, want %v", err, want)
	}
	_, want = PopulationByName("stadium")
	if _, err := PopulationsByNames([]string{"stadium"}); err == nil || err.Error() != want.Error() {
		t.Errorf("PopulationsByNames with an unknown name: %v, want %v", err, want)
	}
}

func TestNamedScenarioProfilesDistinct(t *testing.T) {
	type key struct {
		down netem.Rate
		rtt  time.Duration
	}
	seen := map[key]string{}
	for _, sc := range All() {
		if sc.Name == "internet" {
			continue // shares the DSL link by design
		}
		k := key{sc.Profile.DownRate, sc.Profile.RTT}
		if other, dup := seen[k]; dup {
			t.Errorf("scenarios %q and %q share down rate %d and RTT %v", sc.Name, other, k.down, k.rtt)
		}
		seen[k] = sc.Name
	}
}

// TestDeriveDeterministic: identical seeds realise identical conditions
// and identical third-party site scaling — the property the parallel
// experiment engine's byte-identical tables rest on.
func TestDeriveDeterministic(t *testing.T) {
	site := corpus.Generate(corpus.TopProfile(), 0, 3)
	for _, sc := range All() {
		a := sc.Derive(42)
		b := sc.Derive(42)
		if a.Profile != b.Profile || a.ThinkTime != b.ThinkTime || a.ClientJitterFrac != b.ClientJitterFrac {
			t.Errorf("%s: Derive(42) diverged: %+v vs %+v", sc.Name, a, b)
		}
		sa := a.ApplySite(site)
		sb := b.ApplySite(site)
		ea, eb := sa.DB.Entries(), sb.DB.Entries()
		if len(ea) != len(eb) {
			t.Fatalf("%s: entry counts differ: %d vs %d", sc.Name, len(ea), len(eb))
		}
		for i := range ea {
			if len(ea[i].Body) != len(eb[i].Body) {
				t.Errorf("%s: entry %d body %d vs %d bytes", sc.Name, i, len(ea[i].Body), len(eb[i].Body))
			}
		}
	}
}

func TestDeriveVariesAcrossSeeds(t *testing.T) {
	sc := Internet()
	a := sc.Derive(1)
	b := sc.Derive(2)
	if a.Profile == b.Profile {
		t.Fatalf("internet scenario identical across seeds: %+v", a.Profile)
	}
	// The controlled testbed must not vary at all.
	dsl := DSL()
	if dsl.Derive(1).Profile != dsl.Derive(2).Profile {
		t.Fatal("dsl scenario varies across seeds")
	}
}

func TestDeriveStaysWithinRanges(t *testing.T) {
	sc := Internet()
	base := sc.Profile
	v := sc.Vary
	for seed := int64(0); seed < 50; seed++ {
		c := sc.Derive(seed)
		rttF := float64(c.Profile.RTT) / float64(base.RTT)
		if rttF < v.RTT.Low || rttF >= v.RTT.High {
			t.Fatalf("seed %d: RTT factor %v outside [%v,%v)", seed, rttF, v.RTT.Low, v.RTT.High)
		}
		if c.Profile.LossRate < v.Loss.Low || c.Profile.LossRate >= v.Loss.High {
			t.Fatalf("seed %d: loss %v outside [%v,%v)", seed, c.Profile.LossRate, v.Loss.Low, v.Loss.High)
		}
		if c.ThinkTime < 0 || c.ThinkTime >= v.ThinkTimeMax {
			t.Fatalf("seed %d: think time %v outside [0,%v)", seed, c.ThinkTime, v.ThinkTimeMax)
		}
	}
}

func TestApplySitePreservesFirstParty(t *testing.T) {
	site := corpus.Generate(corpus.TopProfile(), 1, 3)
	c := Internet().Derive(7)
	scaled := c.ApplySite(site)
	if scaled == site {
		t.Fatal("internet conditions returned the input site unscaled")
	}
	thirdPartyChanged := false
	for _, e := range site.DB.Entries() {
		se := scaled.DB.Lookup(e.URL.Authority, e.URL.Path)
		if se == nil {
			t.Fatalf("entry %s lost in scaling", e.URL.Path)
		}
		if site.Authoritative(site.Base.Authority, e.URL.Authority) {
			if len(se.Body) != len(e.Body) {
				t.Fatalf("first-party %s rescaled: %d -> %d", e.URL.Path, len(e.Body), len(se.Body))
			}
		} else if len(se.Body) != len(e.Body) {
			thirdPartyChanged = true
			if len(se.Body) < 16 {
				t.Fatalf("third-party %s shrunk below floor: %d", e.URL.Path, len(se.Body))
			}
		}
	}
	if !thirdPartyChanged {
		t.Fatal("no third-party body was rescaled")
	}
	// Deterministic scenarios pass the site through untouched.
	if got := DSL().Derive(7).ApplySite(site); got != site {
		t.Fatal("dsl conditions copied the site needlessly")
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"empty name", Scenario{Profile: netem.DSL()}},
		{"bad profile", func() Scenario {
			sc := DSL()
			sc.Profile.MSS = 0
			return sc
		}()},
		{"inverted range", DSL().With(Variability{RTT: Range{2, 1}})},
		{"zero-low factor", DSL().With(Variability{Rate: Range{0, 1.5}})},
		{"loss >= 1", DSL().With(Variability{Loss: Range{0.5, 1.5}})},
		{"negative think", DSL().With(Variability{ThinkTimeMax: -time.Second})},
		{"sub-ms think", DSL().With(Variability{ThinkTimeMax: 500 * time.Microsecond})},
		{"jitter >= 1", DSL().With(Variability{ClientJitterFrac: 1})},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestVariabilityDescribe(t *testing.T) {
	if got := DSL().Vary.Describe(); got != "" {
		t.Fatalf("controlled scenario describes %q", got)
	}
	got := Internet().Vary.Describe()
	for _, want := range []string{"RTT x[0.8,1.7)", "rates x[0.6,1.1)", "loss drawn", "client jitter 10%", "think time <30ms", "3rd-party bodies x[0.7,1.5)"} {
		if !strings.Contains(got, want) {
			t.Errorf("internet description %q missing %q", got, want)
		}
	}
	if got := (Variability{ClientJitterFrac: -1}).Describe(); got != "client jitter off" {
		t.Fatalf("negative jitter describes %q", got)
	}
}

func TestNegativeClientJitterValidates(t *testing.T) {
	sc := DSL().With(Variability{ClientJitterFrac: -1})
	if err := sc.Validate(); err != nil {
		t.Fatalf("jitter-off scenario rejected: %v", err)
	}
	if c := sc.Derive(3); c.ClientJitterFrac != -1 {
		t.Fatalf("derived jitter = %v", c.ClientJitterFrac)
	}
}

// TestApplySiteIntoMatchesApplySite pins the overlay-scratch contract:
// a warm SiteScratch must realise byte-identical sites to fresh
// ApplySite calls, run after run, including after switching the scratch
// to a different base site.
func TestApplySiteIntoMatchesApplySite(t *testing.T) {
	siteA := corpus.Generate(corpus.TopProfile(), 1, 3)
	siteB := corpus.Generate(corpus.RandomProfile(), 2, 3)
	scn := Internet()
	var scratch SiteScratch
	check := func(site *replay.Site, seed int64) {
		t.Helper()
		want := scn.Derive(seed).ApplySite(site)
		got := scn.Derive(seed).ApplySiteInto(site, &scratch)
		sameSite(t, fmt.Sprintf("seed %d", seed), got, want)
	}
	for seed := int64(1); seed <= 5; seed++ {
		check(siteA, seed) // warm reuse across runs
	}
	check(siteB, 1) // base switch rebuilds the overlay
	check(siteA, 9) // and back
}

// sameSite fails the test unless got serves the same entries, with the
// same bodies, as want.
func sameSite(t *testing.T, what string, got, want *replay.Site) {
	t.Helper()
	wantEntries, gotEntries := want.DB.Entries(), got.DB.Entries()
	if len(gotEntries) != len(wantEntries) {
		t.Fatalf("%s: %d entries, want %d", what, len(gotEntries), len(wantEntries))
	}
	for i, we := range wantEntries {
		ge := gotEntries[i]
		if ge.URL != we.URL {
			t.Fatalf("%s: entry %d is %v, want %v", what, i, ge.URL, we.URL)
		}
		if !bytes.Equal(ge.Body, we.Body) {
			t.Fatalf("%s: body of %s diverged (%d vs %d bytes)", what, we.URL.Path, len(ge.Body), len(we.Body))
		}
	}
}

// TestDeriveIntoMatchesDerive pins the reuse contract of DeriveInto:
// deriving into a Conditions that a different scenario, fault family
// and seed left behind — random sources drawn from, fault buffer filled
// — realises exactly what a fresh Derive does, for every library
// scenario under every fault family. The exported fields must match,
// and so must the site ApplySiteInto realises from the reused random
// stream (the internet scenario scales third-party bodies; the others
// pass the site through).
func TestDeriveIntoMatchesDerive(t *testing.T) {
	site := corpus.Generate(corpus.TopProfile(), 1, 3)
	scs, fams := All(), fault.Families()
	var c Conditions
	var scratch, dirtyScratch SiteScratch
	for i, sc := range scs {
		for j, fam := range fams {
			scn := sc.WithFaults(fam.Spec)
			for seed := int64(0); seed < 8; seed++ {
				what := fmt.Sprintf("%s, %s, seed %d", sc.Name, fam.Name, seed)
				// Dirty c with the next scenario's internet-style draws
				// under another fault family.
				other := scs[(i+1)%len(scs)].With(InternetVariability()).WithFaults(fams[(j+3)%len(fams)].Spec)
				other.DeriveInto(seed+100, &c)
				c.ApplySiteInto(site, &dirtyScratch)

				scn.DeriveInto(seed, &c)
				want := scn.Derive(seed)
				if c.Profile != want.Profile || c.ClientJitterFrac != want.ClientJitterFrac ||
					c.ThinkTime != want.ThinkTime || !reflect.DeepEqual(c.Faults, want.Faults) {
					t.Fatalf("%s: DeriveInto = %+v, Derive = %+v", what, c, *want)
				}
				sameSite(t, what, c.ApplySiteInto(site, &scratch), want.ApplySite(site))
			}
		}
	}
}
