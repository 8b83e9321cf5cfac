package strategy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/htmlx"
	"repro/internal/page"
	"repro/internal/replay"
)

func testSite() *replay.Site {
	b := corpus.NewPage("site.test")
	fURL := b.Font("/fonts/brand.woff2", 30*1024)
	b.CSS("/css/main.css", corpus.FontFaceCSS("Brand", fURL)+
		corpus.SimpleCSS([]string{"hero", "masthead", "deep-footer"}, 200))
	b.Script("/js/blocking.js", 40*1024, 30, true, false)
	b.Div("masthead", 100)
	b.Image("/img/hero.jpg", 1280, 400, 60*1024)
	b.Text(600, "hero", "wf-Brand")
	// Push content far below the fold.
	for i := 0; i < 12; i++ {
		b.Image("/img/btf.jpg", 400, 400, 20*1024)
		b.Text(800, "deep-footer")
	}
	b.ScriptOn("cdn.ext.test", "/tp.js", 20*1024, 10, false, true)
	return b.Build("strategy-site")
}

func TestMajorityOrder(t *testing.T) {
	tr := &Trace{Orders: [][]string{
		{"a", "b", "c"},
		{"a", "c", "b"},
		{"a", "b", "c"},
	}}
	got := tr.MajorityOrder()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("MajorityOrder = %v", got)
	}
	// Resources appearing in fewer runs rank below stable ones.
	tr2 := &Trace{Orders: [][]string{
		{"x", "flaky"},
		{"x"},
		{"x"},
	}}
	got2 := tr2.MajorityOrder()
	if got2[0] != "x" || got2[1] != "flaky" {
		t.Fatalf("MajorityOrder = %v", got2)
	}
	if (&Trace{}).MajorityOrder() != nil {
		t.Fatal("empty trace order")
	}
	if (*Trace)(nil).MajorityOrder() != nil {
		t.Fatal("nil trace order")
	}
}

// majorityOrderRef is the map-based MajorityOrder the sorted-sightings
// version replaced, kept as the reference it must agree with.
func majorityOrderRef(tr *Trace) []string {
	if tr == nil || len(tr.Orders) == 0 {
		return nil
	}
	positions := map[string][]int{}
	for _, order := range tr.Orders {
		for i, u := range order {
			positions[u] = append(positions[u], i)
		}
	}
	type ranked struct {
		url string
		pos float64
		n   int
	}
	rs := make([]ranked, 0, len(positions))
	for u, ps := range positions {
		sort.Ints(ps)
		med := float64(ps[len(ps)/2])
		if len(ps)%2 == 0 {
			med = float64(ps[len(ps)/2-1]+ps[len(ps)/2]) / 2
		}
		rs = append(rs, ranked{u, med, len(ps)})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].n != rs[j].n {
			return rs[i].n > rs[j].n
		}
		if rs[i].pos != rs[j].pos {
			return rs[i].pos < rs[j].pos
		}
		return rs[i].url < rs[j].url
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.url
	}
	return out
}

// TestMajorityOrderMatchesReference pins MajorityOrder to the map-based
// reference on seeded random traces: odd and even run counts, URLs
// repeated within one order, URLs missing from some runs, ties in count
// and in median position, and degenerate traces.
func TestMajorityOrderMatchesReference(t *testing.T) {
	check := func(name string, tr *Trace) {
		t.Helper()
		got, want := tr.MajorityOrder(), majorityOrderRef(tr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MajorityOrder = %q, reference %q (trace %q)", name, got, want, tr)
		}
	}
	check("nil", nil)
	check("no runs", &Trace{})
	check("empty runs", &Trace{Orders: [][]string{{}, nil}})
	check("count tie, median tie", &Trace{Orders: [][]string{{"b", "a"}, {"a", "b"}}})
	check("duplicate within a run", &Trace{Orders: [][]string{{"a", "b", "a"}, {"b", "a"}}})
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 400; seed++ {
		// A small URL pool makes count and median ties common.
		pool := 1 + rng.Intn(12)
		runs := 1 + rng.Intn(8)
		tr := &Trace{}
		for r := 0; r < runs; r++ {
			var order []string
			for n := rng.Intn(2 * pool); len(order) < n; {
				order = append(order, fmt.Sprintf("https://s.test/%d", rng.Intn(pool)))
			}
			tr.Orders = append(tr.Orders, order)
		}
		check(fmt.Sprintf("seed %d (%d runs)", seed, runs), tr)
	}
}

// TestMajorityOrderAllocBudget bounds one vote over a trace the size of
// the paper's tracing step on a large page: the sightings, the ranking
// and the result (the map-based vote allocated ~212 times on this
// trace). (Not meaningful under -race; CI runs it in the plain test
// pass.)
func TestMajorityOrderAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &Trace{}
	for r := 0; r < 5; r++ {
		order := make([]string, 50)
		for i, p := range rng.Perm(50) {
			order[i] = fmt.Sprintf("https://s.test/r%02d", p)
		}
		tr.Orders = append(tr.Orders, order)
	}
	const budget = 5
	if avg := testing.AllocsPerRun(20, func() { tr.MajorityOrder() }); avg > budget {
		t.Errorf("MajorityOrder allocates %.0f, budget %d", avg, budget)
	}
}

func TestPushAllExcludesThirdParty(t *testing.T) {
	site := testSite()
	_, plan := PushAll{}.Apply(site, nil)
	pushes := plan.PushesFor(site.Base.String())
	if len(pushes) == 0 {
		t.Fatal("no pushes")
	}
	for _, u := range pushes {
		if strings.Contains(u, "cdn.ext.test") {
			t.Fatalf("third-party object in push list: %s", u)
		}
		if u == site.Base.String() {
			t.Fatal("base document in push list")
		}
	}
}

func TestPushFirstNLimits(t *testing.T) {
	site := testSite()
	_, planAll := PushAll{}.Apply(site, nil)
	all := planAll.PushesFor(site.Base.String())
	_, plan5 := PushFirstN{N: 5}.Apply(site, nil)
	five := plan5.PushesFor(site.Base.String())
	if len(five) != 5 {
		t.Fatalf("push 5 pushed %d", len(five))
	}
	for i := range five {
		if five[i] != all[i] {
			t.Fatalf("push 5 order diverges at %d", i)
		}
	}
}

func TestPushByTypeFilters(t *testing.T) {
	site := testSite()
	_, plan := PushByType{Kinds: []page.Kind{page.KindCSS}}.Apply(site, nil)
	pushes := plan.PushesFor(site.Base.String())
	if len(pushes) != 1 || !strings.Contains(pushes[0], "main.css") {
		t.Fatalf("CSS-only pushes: %v", pushes)
	}
	_, planImg := PushByType{Kinds: []page.Kind{page.KindImage}}.Apply(site, nil)
	for _, u := range planImg.PushesFor(site.Base.String()) {
		if !strings.Contains(u, "/img/") {
			t.Fatalf("non-image in image pushes: %v", u)
		}
	}
}

func TestAnalyzeFindsCriticalSet(t *testing.T) {
	site := testSite()
	a := analyze(site)
	if a == nil {
		t.Fatal("analyze nil")
	}
	if len(a.cssLinks) != 1 {
		t.Fatalf("cssLinks = %v", a.cssLinks)
	}
	if len(a.blockingJS) != 1 || !strings.Contains(a.blockingJS[0], "blocking.js") {
		t.Fatalf("blockingJS = %v", a.blockingJS)
	}
	if len(a.fonts) != 1 {
		t.Fatalf("fonts = %v", a.fonts)
	}
	// The browser's layout puts the fold inside the first of the twelve
	// below-the-hero images; the rest lie below it.
	if want := []string{"https://site.test/img/hero.jpg", "https://site.test/img/btf.jpg"}; !reflect.DeepEqual(a.atfImages, want) {
		t.Fatalf("atfImages = %v, want %v", a.atfImages, want)
	}
	// The deep-footer rules must be excluded from the critical CSS, the
	// hero ones retained.
	if !strings.Contains(a.criticalCSS, ".hero") {
		t.Fatal("hero rules missing from critical CSS")
	}
	if strings.Contains(a.criticalCSS, ".unused-50") {
		t.Fatal("bloat rules kept in critical CSS")
	}
	if a.interleaveOffset <= 0 {
		t.Fatal("no interleave offset")
	}
}

func TestRewriteSiteLayout(t *testing.T) {
	site := testSite()
	a := analyze(site)
	ns := rewriteSite(site, a)
	// Critical stylesheet exists.
	crit := ns.DB.Lookup("site.test", CriticalCSSPath)
	if crit == nil || len(crit.Body) == 0 {
		t.Fatal("critical css missing")
	}
	if len(crit.Body) >= len(site.DB.Lookup("site.test", "/css/main.css").Body) {
		t.Fatal("critical css not smaller than the original")
	}
	// Rewritten document: critical link first, original CSS at body end.
	html := ns.DB.Lookup("site.test", "/").Body
	doc := htmlx.Parse(html)
	var critOff, mainOff, imgOff int
	for _, r := range doc.Resources {
		switch {
		case strings.Contains(r.URL, "__critical"):
			critOff = r.Offset
		case strings.Contains(r.URL, "main.css"):
			mainOff = r.Offset
		case strings.Contains(r.URL, "hero.jpg"):
			imgOff = r.Offset
		}
	}
	if critOff == 0 || mainOff == 0 {
		t.Fatalf("missing links after rewrite: crit=%d main=%d", critOff, mainOff)
	}
	if !(critOff < imgOff && imgOff < mainOff) {
		t.Fatalf("offsets wrong: crit=%d img=%d main=%d", critOff, imgOff, mainOff)
	}
	// Original site untouched.
	if site.DB.Lookup("site.test", CriticalCSSPath) != nil {
		t.Fatal("original DB mutated")
	}
}

func TestOptimizedStrategiesProducePlans(t *testing.T) {
	site := testSite()
	base := site.Base.String()

	nsOpt, planOpt := NoPushOptimized{}.Apply(site, nil)
	if planOpt.PushesFor(base) != nil {
		t.Fatal("no push optimized pushes")
	}
	if nsOpt.DB.Lookup("site.test", CriticalCSSPath) == nil {
		t.Fatal("no push optimized did not rewrite")
	}

	_, planCrit := PushCriticalOptimized{}.Apply(site, nil)
	pushes := planCrit.PushesFor(base)
	if len(pushes) == 0 {
		t.Fatal("push critical optimized pushes nothing")
	}
	spec, ok := planCrit.Interleave[base]
	if !ok || spec.OffsetBytes <= 0 || len(spec.Critical) == 0 {
		t.Fatalf("interleave spec = %+v", spec)
	}
	// Critical list must start with the critical stylesheet.
	if !strings.Contains(spec.Critical[0], "__critical") {
		t.Fatalf("critical[0] = %s", spec.Critical[0])
	}

	_, planAllOpt := PushAllOptimized{}.Apply(site, nil)
	allPushes := planAllOpt.PushesFor(base)
	if len(allPushes) <= len(pushes) {
		t.Fatalf("push all optimized (%d) not larger than critical (%d)", len(allPushes), len(pushes))
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, u := range allPushes {
		if seen[u] {
			t.Fatalf("duplicate push %s", u)
		}
		seen[u] = true
	}
}

func TestPushCriticalPushesLessThanPushAll(t *testing.T) {
	site := testSite()
	_, planAll := PushAll{}.Apply(site, nil)
	_, planCrit := PushCritical{}.Apply(site, nil)
	base := site.Base.String()
	if len(planCrit.PushesFor(base)) >= len(planAll.PushesFor(base)) {
		t.Fatalf("critical (%d) not smaller than all (%d)",
			len(planCrit.PushesFor(base)), len(planAll.PushesFor(base)))
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[string]bool{}
	for _, st := range []Strategy{
		NoPush{}, PushAll{}, PushFirstN{N: 5},
		PushByType{Kinds: []page.Kind{page.KindCSS}},
		PushCritical{}, NoPushOptimized{}, PushAllOptimized{}, PushCriticalOptimized{},
	} {
		if st.Name() == "" || names[st.Name()] {
			t.Fatalf("bad/duplicate name %q", st.Name())
		}
		names[st.Name()] = true
	}
}

// TestDisablesPush covers every strategy type: only the two no-push
// baselines load with push turned off.
func TestDisablesPush(t *testing.T) {
	for _, tc := range []struct {
		st   Strategy
		want bool
	}{
		{NoPush{}, true},
		{NoPushOptimized{}, true},
		{PushAll{}, false},
		{PushFirstN{N: 1}, false},
		{PushByType{Kinds: []page.Kind{page.KindImage}}, false},
		{PushCritical{}, false},
		{PushAllOptimized{}, false},
		{PushCriticalOptimized{}, false},
	} {
		if got := DisablesPush(tc.st); got != tc.want {
			t.Errorf("DisablesPush(%s) = %v, want %v", tc.st.Name(), got, tc.want)
		}
	}
}
