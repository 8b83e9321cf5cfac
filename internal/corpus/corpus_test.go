package corpus

import (
	"strings"
	"testing"

	"repro/internal/htmlx"
	"repro/internal/page"
)

func TestBuilderProducesParseableHTML(t *testing.T) {
	b := NewPage("t.test")
	b.CSS("/a.css", "body{margin:0}")
	b.Script("/b.js", 1000, 5, true, false)
	b.Image("/c.png", 100, 200, 5000)
	b.Text(300, "intro")
	site := b.Build("t")
	base := site.DB.Lookup("t.test", "/")
	if base == nil {
		t.Fatal("base document missing")
	}
	doc := htmlx.Parse(base.Body)
	if len(doc.Resources) != 3 {
		t.Fatalf("resources = %v", doc.ExternalURLs())
	}
	// All referenced resources resolvable in the DB.
	for _, u := range doc.ExternalURLs() {
		pu, err := page.ParseURL(u, site.Base)
		if err != nil {
			t.Fatalf("bad URL %q: %v", u, err)
		}
		if site.DB.Lookup(pu.Authority, pu.Path) == nil {
			t.Errorf("referenced %s not in DB", u)
		}
	}
}

func TestBuilderMetaRecorded(t *testing.T) {
	b := NewPage("t.test")
	b.Script("/x.js", 2048, 123, true, false)
	b.Image("/y.png", 640, 480, 100)
	site := b.Build("t")
	js := site.DB.Lookup("t.test", "/x.js")
	if js == nil || js.Meta.ExecMS != 123 {
		t.Fatalf("js meta = %+v", js)
	}
	img := site.DB.Lookup("t.test", "/y.png")
	if img == nil || img.Meta.Width != 640 {
		t.Fatalf("img meta = %+v", img)
	}
	if len(js.Body) < 2000 || len(js.Body) > 2100 {
		t.Fatalf("js body size %d", len(js.Body))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(RandomProfile(), 3, 42)
	b := Generate(RandomProfile(), 3, 42)
	if a.DB.Len() != b.DB.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.DB.Len(), b.DB.Len())
	}
	ea, eb := a.DB.Entries(), b.DB.Entries()
	for i := range ea {
		if ea[i].URL != eb[i].URL || len(ea[i].Body) != len(eb[i].Body) {
			t.Fatalf("entry %d differs", i)
		}
	}
	c := Generate(RandomProfile(), 4, 42)
	if c.DB.Len() == a.DB.Len() {
		t.Log("two indices coincidentally equal in object count (fine)")
	}
}

func TestGenerateSetPushableDistribution(t *testing.T) {
	// The calibrated property from Sec. 4.2: roughly 52% (top) and 24%
	// (random) of sites have <20% pushable objects.
	check := func(prof Profile, wantLow float64) {
		sites := GenerateSet(prof, 100, 7)
		low := 0
		for _, s := range sites {
			if s.PushableFraction() < 0.20 {
				low++
			}
		}
		got := float64(low) / 100
		if got < wantLow-0.15 || got > wantLow+0.15 {
			t.Errorf("%s: %.0f%% of sites <20%% pushable, want ~%.0f%%",
				prof.Name, got*100, wantLow*100)
		}
	}
	check(TopProfile(), 0.52)
	check(RandomProfile(), 0.24)
}

func TestGenerateSitesAreLoadable(t *testing.T) {
	// Structural sanity of generated sites: base parses, has resources,
	// object mix looks web-like.
	for i := 0; i < 5; i++ {
		site := Generate(RandomProfile(), i, 11)
		entry := site.DB.Lookup(site.Base.Authority, site.Base.Path)
		if entry == nil {
			t.Fatalf("site %d: no base entry", i)
		}
		doc := htmlx.Parse(entry.Body)
		if len(doc.Resources) < 5 {
			t.Errorf("site %d: only %d references", i, len(doc.Resources))
		}
		kinds := map[page.Kind]int{}
		for _, e := range site.DB.Entries() {
			kinds[e.Kind()]++
		}
		if kinds[page.KindCSS] == 0 || kinds[page.KindJS] == 0 || kinds[page.KindImage] == 0 {
			t.Errorf("site %d: kind mix %v", i, kinds)
		}
	}
}

func TestSyntheticSites(t *testing.T) {
	sites := SyntheticSites()
	if len(sites) != 10 {
		t.Fatalf("synthetic sites = %d", len(sites))
	}
	for _, s := range sites {
		if s.DB.Lookup(s.Base.Authority, s.Base.Path) == nil {
			t.Errorf("%s: missing base", s.Name)
		}
		// Single server: everything pushable (Sec. 4.3 relocation).
		if got := s.PushableFraction(); got != 1.0 {
			t.Errorf("%s: pushable fraction %.2f, want 1.0 (single server)", s.Name, got)
		}
	}
}

func TestPopularSites(t *testing.T) {
	sites := PopularSites()
	if len(sites) != 20 {
		t.Fatalf("popular sites = %d", len(sites))
	}
	byID := map[string]int{}
	for i, s := range sites {
		byID[strings.SplitN(s.Name, "-", 2)[0]] = i
		if s.DB.Lookup(s.Base.Authority, s.Base.Path) == nil {
			t.Errorf("%s: missing base", s.Name)
		}
	}
	// w1 wikipedia: large HTML (~236KB).
	w1 := sites[byID["w1"]]
	html := w1.DB.Lookup(w1.Base.Authority, w1.Base.Path)
	if len(html.Body) < 200*1024 {
		t.Errorf("w1 HTML only %d bytes", len(html.Body))
	}
	// w17 cnn: by far the most objects and hosts.
	w17 := sites[byID["w17"]]
	if w17.DB.Len() < 200 {
		t.Errorf("w17 objects = %d, want >200", w17.DB.Len())
	}
	if len(w17.Hosts()) < 50 {
		t.Errorf("w17 hosts = %d, want >50", len(w17.Hosts()))
	}
	// w5 craigslist: tiny.
	w5 := sites[byID["w5"]]
	if w5.DB.Len() > 12 {
		t.Errorf("w5 objects = %d, want <=12", w5.DB.Len())
	}
	// w8 bestbuy: merged host shares the base connection.
	w8 := sites[byID["w8"]]
	if w8.ConnKey("bestbuy.com") != w8.ConnKey("img.bestbuy-static.com") {
		t.Error("w8 merged host not coalesced")
	}
}

func TestPopularSiteByID(t *testing.T) {
	if PopularSite("w16") == nil {
		t.Fatal("w16 missing")
	}
	if PopularSite("w99") != nil {
		t.Fatal("w99 exists")
	}
	if len(PopularSiteIDs()) != 20 {
		t.Fatal("ids != 20")
	}
}

func TestFillerHelpers(t *testing.T) {
	if len(filler(100)) != 100 {
		t.Fatal("filler size")
	}
	if filler(0) != nil {
		t.Fatal("filler(0)")
	}
	js := jsFiller(500)
	if len(js) != 500 || !strings.Contains(string(js), "function") {
		t.Fatalf("jsFiller: %d bytes", len(js))
	}
	var text strings.Builder
	textFiller(&text, 77)
	if text.Len() != 77 {
		t.Fatal("textFiller size")
	}
	css := SimpleCSS([]string{"a", "b"}, 3)
	if !strings.Contains(css, ".a{") || !strings.Contains(css, ".unused-2") {
		t.Fatalf("SimpleCSS output: %s", css)
	}
}
