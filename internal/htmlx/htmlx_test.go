package htmlx

import (
	"strings"
	"testing"
)

const sampleHTML = `<!DOCTYPE html>
<html>
<head>
<title>Test Page</title>
<link rel="stylesheet" href="/css/main.css">
<link rel="stylesheet" href="/css/print.css" media="print">
<script src="/js/head.js"></script>
<script>var inline = 1;</script>
<style>body { margin: 0; }</style>
</head>
<body>
<div class="hero big" id="top">
<img src="/img/hero.jpg" width="1280" height="400">
Welcome to the test page with some text.
</div>
<p class="intro">A paragraph of introductory text that is long enough to count.</p>
<script src="/js/lazy.js" async></script>
<script src="/js/defer.js" defer></script>
<img src="/img/footer.png" width="100" height="50">
<!-- <img src="/img/commented-out.png"> -->
<script>console.log("late");</script>
</body>
</html>`

func TestParseResources(t *testing.T) {
	d := Parse([]byte(sampleHTML))
	urls := d.ExternalURLs()
	want := []string{"/css/main.css", "/css/print.css", "/js/head.js",
		"/img/hero.jpg", "/js/lazy.js", "/js/defer.js", "/img/footer.png"}
	if len(urls) != len(want) {
		t.Fatalf("got %d resources %v, want %d", len(urls), urls, len(want))
	}
	for i := range want {
		if urls[i] != want[i] {
			t.Errorf("resource %d = %q, want %q", i, urls[i], want[i])
		}
	}
}

func TestParseResourceFlags(t *testing.T) {
	d := Parse([]byte(sampleHTML))
	byURL := map[string]Resource{}
	for _, r := range d.Resources {
		byURL[r.URL] = r
	}
	if !byURL["/css/main.css"].InHead {
		t.Error("main.css not marked InHead")
	}
	if byURL["/img/hero.jpg"].InHead {
		t.Error("hero.jpg marked InHead")
	}
	if !byURL["/js/lazy.js"].Async {
		t.Error("lazy.js not async")
	}
	if !byURL["/js/defer.js"].Defer {
		t.Error("defer.js not defer")
	}
	if byURL["/css/print.css"].Media != "print" {
		t.Errorf("print.css media = %q", byURL["/css/print.css"].Media)
	}
	if byURL["/img/hero.jpg"].Width != 1280 || byURL["/img/hero.jpg"].Height != 400 {
		t.Errorf("hero.jpg dims = %dx%d", byURL["/img/hero.jpg"].Width, byURL["/img/hero.jpg"].Height)
	}
}

func TestParseInlineBlocks(t *testing.T) {
	d := Parse([]byte(sampleHTML))
	if len(d.InlineScripts) != 2 {
		t.Fatalf("inline scripts = %d, want 2", len(d.InlineScripts))
	}
	if !strings.Contains(d.InlineScripts[0].Content, "var inline = 1") {
		t.Errorf("first inline script content %q", d.InlineScripts[0].Content)
	}
	if !d.InlineScripts[0].InHead || d.InlineScripts[1].InHead {
		t.Error("inline script head flags wrong")
	}
	if len(d.InlineStyles) != 1 || !strings.Contains(d.InlineStyles[0].Content, "margin: 0") {
		t.Fatalf("inline styles = %+v", d.InlineStyles)
	}
}

func TestParseElements(t *testing.T) {
	d := Parse([]byte(sampleHTML))
	var hero, intro *Element
	for i := range d.Elements {
		e := &d.Elements[i]
		switch {
		case e.ID == "top":
			hero = e
		case len(e.Classes) > 0 && e.Classes[0] == "intro":
			intro = e
		}
	}
	if hero == nil || intro == nil {
		t.Fatalf("missing elements: hero=%v intro=%v (have %d)", hero, intro, len(d.Elements))
	}
	if hero.Classes[0] != "hero" || hero.Classes[1] != "big" {
		t.Errorf("hero classes %v", hero.Classes)
	}
	if intro.TextLen == 0 {
		t.Error("intro paragraph has no text length")
	}
}

func TestParseTitleAndOffsets(t *testing.T) {
	d := Parse([]byte(sampleHTML))
	if d.Title != "Test Page" {
		t.Errorf("title %q", d.Title)
	}
	if d.HeadStart == 0 || d.HeadEnd <= d.HeadStart {
		t.Errorf("head offsets %d..%d", d.HeadStart, d.HeadEnd)
	}
	if d.BodyEnd >= len(sampleHTML) || d.BodyEnd <= d.HeadEnd {
		t.Errorf("body end %d", d.BodyEnd)
	}
	// Resource offsets are strictly increasing and within bounds.
	last := 0
	for _, r := range d.Resources {
		if r.Offset <= last || r.Offset > len(sampleHTML) {
			t.Errorf("offset %d for %s not increasing", r.Offset, r.URL)
		}
		last = r.Offset
	}
}

func TestCommentedOutResourcesIgnored(t *testing.T) {
	d := Parse([]byte(sampleHTML))
	for _, r := range d.Resources {
		if strings.Contains(r.URL, "commented-out") {
			t.Fatal("resource inside comment extracted")
		}
	}
}

func TestUnquotedAndSingleQuotedAttrs(t *testing.T) {
	html := `<html><body><img src=/a.png width=10 height=20><script src='/b.js'></script></body></html>`
	d := Parse([]byte(html))
	if len(d.Resources) != 2 {
		t.Fatalf("resources = %v", d.ExternalURLs())
	}
	if d.Resources[0].URL != "/a.png" || d.Resources[0].Width != 10 {
		t.Errorf("img resource %+v", d.Resources[0])
	}
	if d.Resources[1].URL != "/b.js" {
		t.Errorf("script resource %+v", d.Resources[1])
	}
}

func TestMalformedHTMLDoesNotPanic(t *testing.T) {
	inputs := []string{
		"", "<", "<>", "<div", `<div class="unterminated`, "<!-- unterminated",
		"<script>never closed", "<style>a{", "<img src=>", "<<<>>>",
		"<a href='x' <b>", "<!doctype html><html>",
	}
	for _, in := range inputs {
		d := Parse([]byte(in))
		if d == nil {
			t.Fatalf("Parse(%q) returned nil", in)
		}
	}
}

func TestRewriteMoveCSSToBodyEnd(t *testing.T) {
	out := MoveStylesheetsToBodyEnd([]byte(sampleHTML))
	s := string(out)
	d := Parse(out)
	// The stylesheet links must now come after the last img.
	var cssOff, imgOff int
	for _, r := range d.Resources {
		switch r.URL {
		case "/css/main.css":
			cssOff = r.Offset
		case "/img/footer.png":
			imgOff = r.Offset
		}
	}
	if cssOff == 0 || imgOff == 0 {
		t.Fatalf("missing resources after rewrite: %v", d.ExternalURLs())
	}
	if cssOff < imgOff {
		t.Fatal("stylesheet link not moved to end of body")
	}
	if strings.Count(s, "/css/main.css") != 1 {
		t.Fatal("stylesheet link duplicated")
	}
	if len(out) != len(sampleHTML) {
		t.Fatalf("rewrite changed the length: %d bytes, want %d", len(out), len(sampleHTML))
	}
}

// TestRewriteNoOpPreservesBytes: a document with no stylesheet link (a
// link of another rel stays where it is) comes back byte-identical.
func TestRewriteNoOpPreservesBytes(t *testing.T) {
	doc := strings.NewReplacer(
		`<link rel="stylesheet" href="/css/main.css">`, `<link rel="icon" href="/favicon.ico">`,
		`<link rel="stylesheet" href="/css/print.css" media="print">`+"\n", "",
	).Replace(sampleHTML)
	if strings.Contains(doc, "stylesheet") {
		t.Fatal("fixture still has a stylesheet link")
	}
	if out := MoveStylesheetsToBodyEnd([]byte(doc)); string(out) != doc {
		t.Fatal("no-op rewrite changed the document")
	}
}
