package cssx

import (
	"strings"
	"testing"
)

const sampleCSS = `
/* reset */
body { margin: 0; padding: 0; }
.hero, .banner { background: url("/img/bg.jpg") no-repeat; height: 400px; }
#nav > ul li a:hover { color: blue; }
p.intro { font-family: "BrandFont", sans-serif; font-size: 16px; }
@font-face {
  font-family: "BrandFont";
  src: url(/fonts/brand.woff2) format("woff2");
}
@import url("/css/extra.css");
@media (max-width: 600px) {
  .hero { height: 200px; }
  .mobile-only { display: block; }
}
@media print {
  body { color: black; }
}
@keyframes spin { from { transform: rotate(0); } to { transform: rotate(360deg); } }
.footer { background-image: url('/img/footer-decor.png'); }
`

func TestParseRules(t *testing.T) {
	s := Parse([]byte(sampleCSS))
	if len(s.Rules) < 7 {
		t.Fatalf("parsed %d rules, want >= 7", len(s.Rules))
	}
	// First rule.
	if s.Rules[0].Selectors[0] != "body" || !strings.Contains(s.Rules[0].Body, "margin: 0") {
		t.Errorf("rule 0 = %+v", s.Rules[0])
	}
	// Multi-selector rule.
	var hero *rule
	for i := range s.Rules {
		if s.Rules[i].Selectors[0] == ".hero" && s.Rules[i].Media == "" {
			hero = &s.Rules[i]
		}
	}
	if hero == nil || len(hero.Selectors) != 2 || hero.Selectors[1] != ".banner" {
		t.Fatalf("hero rule = %+v", hero)
	}
}

func TestParseMediaBlocks(t *testing.T) {
	s := Parse([]byte(sampleCSS))
	var mobile, print int
	for _, r := range s.Rules {
		if strings.Contains(r.Media, "max-width") {
			mobile++
		}
		if strings.Contains(r.Media, "print") {
			print++
		}
	}
	if mobile != 2 {
		t.Errorf("mobile rules = %d, want 2", mobile)
	}
	if print != 1 {
		t.Errorf("print rules = %d, want 1", print)
	}
}

func TestParseFontFace(t *testing.T) {
	s := Parse([]byte(sampleCSS))
	if len(s.FontFaces) != 1 {
		t.Fatalf("font faces = %d", len(s.FontFaces))
	}
	ff := s.FontFaces[0]
	if ff.Family != "BrandFont" || ff.URL != "/fonts/brand.woff2" {
		t.Fatalf("font face = %+v", ff)
	}
}

func TestParseImportsAndAssets(t *testing.T) {
	s := Parse([]byte(sampleCSS))
	if len(s.Imports) != 1 || s.Imports[0] != "/css/extra.css" {
		t.Fatalf("imports = %v", s.Imports)
	}
	assets := map[string]bool{}
	for _, u := range s.AssetURLs {
		assets[u] = true
	}
	if !assets["/img/bg.jpg"] || !assets["/img/footer-decor.png"] {
		t.Fatalf("assets = %v", s.AssetURLs)
	}
}

func TestParseMalformedNoPanic(t *testing.T) {
	for _, in := range []string{
		"", "{", "}", "a{", "a{b", "@media{", "@import", "@font-face{src:url(",
		"/* unterminated", "a{b:c;;;}d{}", "@unknown stuff;",
	} {
		if s := ParseString(in); s == nil {
			t.Fatalf("Parse(%q) = nil", in)
		}
	}
}

func atfSample() []ElementSig {
	return []ElementSig{
		{Tag: "body"},
		{Tag: "div", Classes: []string{"hero"}},
		{Tag: "p", Classes: []string{"intro"}},
		{Tag: "nav", ID: "nav"},
	}
}

func TestExtractCriticalKeepsMatchingRules(t *testing.T) {
	s := Parse([]byte(sampleCSS))
	res := ExtractCritical(s, atfSample())
	css := res.CSS
	if !strings.Contains(css, ".hero") {
		t.Error("hero rule dropped")
	}
	if !strings.Contains(css, "body{") && !strings.Contains(css, "body {") {
		t.Error("body rule dropped")
	}
	if strings.Contains(css, ".footer") {
		t.Error("footer rule kept although not ATF")
	}
	if strings.Contains(css, ".mobile-only") {
		t.Error("non-matching mobile rule kept")
	}
	if strings.Contains(css, "print") {
		t.Error("print rule kept")
	}
}

func TestExtractCriticalKeepsUsedFontFaces(t *testing.T) {
	s := Parse([]byte(sampleCSS))
	res := ExtractCritical(s, atfSample())
	if len(res.FontFaces) != 1 {
		t.Fatalf("font faces kept = %d, want 1 (p.intro uses BrandFont)", len(res.FontFaces))
	}
	// Without the intro paragraph ATF, the font-face must be dropped.
	res2 := ExtractCritical(s, []ElementSig{{Tag: "div", Classes: []string{"hero"}}})
	if len(res2.FontFaces) != 0 {
		t.Fatalf("font face kept without any ATF user")
	}
}

func TestExtractCriticalReducesSize(t *testing.T) {
	s := Parse([]byte(sampleCSS))
	res := ExtractCritical(s, []ElementSig{{Tag: "div", Classes: []string{"hero"}}})
	if res.KeptBytes >= res.TotalBytes {
		t.Fatalf("no reduction: kept %d of %d", res.KeptBytes, res.TotalBytes)
	}
	if res.KeptBytes == 0 {
		t.Fatal("nothing kept")
	}
}

func TestRightmostCompoundParsing(t *testing.T) {
	cases := []struct {
		sel  string
		tag  string
		id   string
		ncls int
	}{
		{"div.hero", "div", "", 1},
		{"#nav > ul li a:hover", "a", "", 0},
		{"body", "body", "", 0},
		{".a.b.c", "", "", 3},
		{"header #logo", "", "logo", 0},
		{"*", "", "", 0},
		{"p::before", "p", "", 0},
		{"input[type=text]", "input", "", 0},
	}
	for _, tc := range cases {
		c := parseRightmostCompound(tc.sel)
		if c.tag != tc.tag || c.id != tc.id || len(c.classes) != tc.ncls {
			t.Errorf("parseRightmostCompound(%q) = %+v, want tag=%q id=%q classes=%d",
				tc.sel, c, tc.tag, tc.id, tc.ncls)
		}
	}
}

func TestCompoundMatching(t *testing.T) {
	el := ElementSig{Tag: "div", ID: "main", Classes: []string{"hero", "big"}}
	match := []string{"div", ".hero", ".big.hero", "#main", "div#main.hero", "*"}
	noMatch := []string{"span", ".other", "#other", "div.hero.missing"}
	for _, sel := range match {
		if !parseRightmostCompound(sel).matches(el) {
			t.Errorf("%q should match %+v", sel, el)
		}
	}
	for _, sel := range noMatch {
		if parseRightmostCompound(sel).matches(el) {
			t.Errorf("%q should not match %+v", sel, el)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	s := Parse([]byte(sampleCSS))
	out := serialize(s.Rules, s.FontFaces)
	s2 := Parse([]byte(out))
	if len(s2.Rules) != len(s.Rules) {
		t.Fatalf("reparse: %d rules, want %d", len(s2.Rules), len(s.Rules))
	}
	if len(s2.FontFaces) != len(s.FontFaces) {
		t.Fatalf("reparse: %d font faces, want %d", len(s2.FontFaces), len(s.FontFaces))
	}
	// Media assignment survives.
	var mobile int
	for _, r := range s2.Rules {
		if strings.Contains(r.Media, "max-width") {
			mobile++
		}
	}
	if mobile != 2 {
		t.Fatalf("reparse mobile rules = %d", mobile)
	}
}
