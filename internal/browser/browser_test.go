package browser

import (
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/netem"
	"repro/internal/page"
	"repro/internal/replay"
	"repro/internal/sim"
)

// loadSite runs one page load and returns the result.
func loadSite(t *testing.T, site *replay.Site, plan replay.Plan, cfg Config, seed int64) *Result {
	t.Helper()
	s := sim.New(seed)
	n := netem.New(s, netem.DSL())
	farm := replay.NewFarm(s, n, site, plan)
	ld := New(s, farm, cfg)
	ld.Start()
	s.Run()
	return ld.Result()
}

func simpleSite() *replay.Site {
	b := corpus.NewPage("example.test")
	b.CSS("/css/main.css", corpus.SimpleCSS([]string{"hero", "intro"}, 20))
	b.Div("hero", 300)
	b.Image("/img/hero.png", 1280, 300, 40*1024)
	b.Text(600, "intro")
	b.Script("/js/app.js", 20*1024, 5, false, false)
	b.Text(800)
	return b.Build("simple")
}

func TestLoadCompletesAndMetricsSane(t *testing.T) {
	cfg := DefaultConfig()
	res := loadSite(t, simpleSite(), replay.NoPush(), cfg, 1)
	if res.Outcome != OutcomeComplete {
		t.Fatal("load did not complete")
	}
	if res.PLT <= 0 || res.PLT > 30*time.Second {
		t.Fatalf("PLT = %v", res.PLT)
	}
	if res.SpeedIndex <= 0 || res.SpeedIndex > res.PLT+time.Second {
		t.Fatalf("SpeedIndex = %v (PLT %v)", res.SpeedIndex, res.PLT)
	}
	if res.FirstPaint <= 0 || res.FirstPaint > res.PLT {
		t.Fatalf("FirstPaint = %v", res.FirstPaint)
	}
	// 1 HTML + css + img + js = 4 requests.
	if res.Requests != 4 {
		t.Fatalf("Requests = %d, want 4", res.Requests)
	}
	if len(res.Progress) == 0 {
		t.Fatal("no visual progress recorded")
	}
	last := res.Progress[len(res.Progress)-1]
	if last.Fraction < 0.999 {
		t.Fatalf("final visual fraction = %v", last.Fraction)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	cfg := DefaultConfig()
	a := loadSite(t, simpleSite(), replay.NoPush(), cfg, 7)
	b := loadSite(t, simpleSite(), replay.NoPush(), cfg, 7)
	if a.PLT != b.PLT || a.SpeedIndex != b.SpeedIndex {
		t.Fatalf("same seed diverged: PLT %v/%v SI %v/%v", a.PLT, b.PLT, a.SpeedIndex, b.SpeedIndex)
	}
	c := loadSite(t, simpleSite(), replay.NoPush(), cfg, 8)
	if a.PLT == c.PLT {
		t.Log("different seeds produced identical PLT (possible but unlikely with jitter)")
	}
}

func TestRenderBlockingCSSDelaysFirstPaint(t *testing.T) {
	// A page whose CSS is tiny paints earlier than one whose CSS is
	// huge, everything else equal.
	build := func(cssBytes int) *replay.Site {
		b := corpus.NewPage("example.test")
		css := corpus.SimpleCSS([]string{"hero"}, cssBytes/90)
		b.CSS("/css/main.css", css)
		b.Div("hero", 500)
		b.Text(1000)
		return b.Build("css-size")
	}
	cfg := DefaultConfig()
	smallCSS := loadSite(t, build(2*1024), replay.NoPush(), cfg, 1)
	bigCSS := loadSite(t, build(200*1024), replay.NoPush(), cfg, 1)
	if smallCSS.FirstPaint >= bigCSS.FirstPaint {
		t.Fatalf("big render-blocking CSS painted earlier: small=%v big=%v",
			smallCSS.FirstPaint, bigCSS.FirstPaint)
	}
}

func TestSyncScriptBlocksParser(t *testing.T) {
	// Identical pages except the blocking script's size.
	build := func(jsBytes int) *replay.Site {
		b := corpus.NewPage("example.test")
		b.Script("/js/blocking.js", jsBytes, 0, true, false)
		b.Div("hero", 500)
		b.Text(2000)
		return b.Build("js-size")
	}
	cfg := DefaultConfig()
	fast := loadSite(t, build(1024), replay.NoPush(), cfg, 1)
	slow := loadSite(t, build(300*1024), replay.NoPush(), cfg, 1)
	if fast.FirstPaint >= slow.FirstPaint {
		t.Fatalf("large head script did not delay paint: %v vs %v", fast.FirstPaint, slow.FirstPaint)
	}
	if fast.PLT >= slow.PLT {
		t.Fatalf("large head script did not delay PLT: %v vs %v", fast.PLT, slow.PLT)
	}
}

func TestExecCostMetadataDelaysLoad(t *testing.T) {
	build := func(execMS float64) *replay.Site {
		b := corpus.NewPage("example.test")
		b.Script("/js/app.js", 10*1024, execMS, true, false)
		b.Text(500)
		return b.Build("exec-cost")
	}
	cfg := DefaultConfig()
	cheap := loadSite(t, build(0), replay.NoPush(), cfg, 1)
	costly := loadSite(t, build(400), replay.NoPush(), cfg, 1)
	dPLT := costly.PLT - cheap.PLT
	if dPLT < 300*time.Millisecond || dPLT > 600*time.Millisecond {
		t.Fatalf("400ms exec cost changed PLT by %v", dPLT)
	}
}

func TestWebfontHiddenText(t *testing.T) {
	// Text using a webfont cannot paint before the font arrives; the
	// font is only discovered after the CSS is parsed.
	b := corpus.NewPage("example.test")
	fontURL := b.Font("/fonts/brand.woff2", 60*1024)
	b.CSS("/css/main.css", corpus.FontFaceCSS("Brand", fontURL)+corpus.SimpleCSS([]string{"x"}, 2))
	b.Text(800, "wf-Brand")
	site := b.Build("font-site")

	noFontSite := func() *replay.Site {
		b := corpus.NewPage("example.test")
		b.CSS("/css/main.css", corpus.SimpleCSS([]string{"x"}, 2))
		b.Text(800)
		return b.Build("plain-site")
	}()

	cfg := DefaultConfig()
	withFont := loadSite(t, site, replay.NoPush(), cfg, 1)
	without := loadSite(t, noFontSite, replay.NoPush(), cfg, 1)
	if withFont.FirstPaint <= without.FirstPaint {
		t.Fatalf("webfont did not delay text paint: %v vs %v", withFont.FirstPaint, without.FirstPaint)
	}
}

// TestImageBehindBlockingScriptRequestedEarly: the parser stops at a
// synchronous head script until it has loaded and run, but the preload
// scanner reads ahead in the received bytes, so the image behind the
// script is requested while the script is still loading.
func TestImageBehindBlockingScriptRequestedEarly(t *testing.T) {
	b := corpus.NewPage("example.test")
	b.Script("/js/slow.js", 150*1024, 50, true, false)
	b.Image("/img/a.png", 400, 300, 80*1024)
	b.Text(500)
	site := b.Build("scanner-site")

	res := loadSite(t, site, replay.NoPush(), DefaultConfig(), 1)
	var script, img *ResourceTiming
	for i := range res.Timings {
		switch tm := &res.Timings[i]; tm.URL {
		case "https://example.test/js/slow.js":
			script = tm
		case "https://example.test/img/a.png":
			img = tm
		}
	}
	if script == nil || img == nil {
		t.Fatalf("missing timings: script %v image %v in %+v", script, img, res.Timings)
	}
	if img.Start >= script.End {
		t.Fatalf("image requested at %v, after the blocking script finished loading at %v", img.Start, script.End)
	}
}

func TestPushCSSImprovesFirstPaint(t *testing.T) {
	// CSS referenced in head: pushing it alongside the (large) HTML
	// avoids the discovery round trip.
	build := func() (*replay.Site, string) {
		b := corpus.NewPage("example.test")
		b.CSS("/css/main.css", corpus.SimpleCSS([]string{"hero"}, 100))
		b.Div("hero", 400)
		b.Text(1500)
		b.PadHTML(60 * 1024)
		site := b.Build("push-css")
		return site, "https://example.test/css/main.css"
	}
	site, cssURL := build()
	cfg := DefaultConfig()
	noPush := cfg
	noPush.EnablePush = false

	base := loadSite(t, site, replay.NoPush(), noPush, 1)
	pushed := loadSite(t, site, replay.PushList("https://example.test/", cssURL), cfg, 1)
	if pushed.PushedAccepted != 1 {
		t.Fatalf("PushedAccepted = %d", pushed.PushedAccepted)
	}
	if pushed.FirstPaint >= base.FirstPaint {
		t.Fatalf("pushed CSS did not improve first paint: push=%v nopush=%v",
			pushed.FirstPaint, base.FirstPaint)
	}
}

func TestPushDuplicateCancelled(t *testing.T) {
	// Pushing a resource the preload scanner requests almost instantly:
	// if the request wins, the push is cancelled.
	b := corpus.NewPage("example.test")
	// Reference CSS first thing in head: scanner sees it with the first
	// chunk. Give the push a long HTML prefix so the promise arrives
	// after the request was issued... here instead we push a resource
	// that was already requested by referencing it in the first bytes.
	b.CSS("/css/early.css", corpus.SimpleCSS([]string{"a"}, 5))
	b.Text(100, "a")
	site := b.Build("dup")
	plan := replay.Plan{Push: map[string][]string{
		// Push triggered by the CSS request itself: by then the CSS was
		// obviously requested, making the pushed duplicate of the same
		// CSS cancellable.
		"https://example.test/css/early.css": {"https://example.test/css/early.css"},
	}}
	cfg := DefaultConfig()
	res := loadSite(t, site, plan, cfg, 1)
	if res.PushedCancelled != 1 {
		t.Fatalf("PushedCancelled = %d, want 1 (duplicate push)", res.PushedCancelled)
	}
	if res.Outcome != OutcomeComplete {
		t.Fatal("load incomplete")
	}
}

func TestPushUnusedWastesBytes(t *testing.T) {
	b := corpus.NewPage("example.test")
	b.CSS("/css/main.css", corpus.SimpleCSS([]string{"a"}, 5))
	b.Text(300, "a")
	// An object recorded but never referenced by the page.
	b.Image("/img/used.png", 100, 100, 10*1024)
	site := b.Build("unused")
	site.DB.Add(&replay.Entry{
		URL:         page.URL{Scheme: "https", Authority: "example.test", Path: "/img/never-referenced.png"},
		Status:      200,
		ContentType: "image/png",
		Body:        make([]byte, 50*1024),
	})
	plan := replay.PushList("https://example.test/",
		"https://example.test/img/never-referenced.png")
	res := loadSite(t, site, plan, DefaultConfig(), 1)
	if res.PushedUnused != 1 {
		t.Fatalf("PushedUnused = %d, want 1", res.PushedUnused)
	}
	if res.BytesPushedWasted == 0 {
		t.Fatal("no wasted bytes counted")
	}
}

func TestThirdPartyNeedsOwnConnection(t *testing.T) {
	b := corpus.NewPage("example.test")
	b.CSS("/css/main.css", corpus.SimpleCSS([]string{"a"}, 5))
	b.ScriptOn("cdn.other.test", "/lib.js", 30*1024, 10, true, false)
	b.Text(300, "a")
	site := b.Build("thirdparty")
	res := loadSite(t, site, replay.NoPush(), DefaultConfig(), 1)
	if res.Conns != 2 {
		t.Fatalf("Conns = %d, want 2 (base + third party)", res.Conns)
	}
	if res.Outcome != OutcomeComplete {
		t.Fatal("load incomplete")
	}
}

func TestCoalescedHostsShareConnection(t *testing.T) {
	b := corpus.NewPage("example.test")
	b.CSS("/css/main.css", corpus.SimpleCSS([]string{"a"}, 5))
	b.ImageOn("img.example.test", "/hero.png", 600, 300, 30*1024)
	b.Text(300, "a")
	site := b.Build("coalesce")
	site.MergeHosts("example.test", "img.example.test")
	res := loadSite(t, site, replay.NoPush(), DefaultConfig(), 1)
	if res.Conns != 1 {
		t.Fatalf("Conns = %d, want 1 after host merge", res.Conns)
	}
}

func TestInterleavePushBeatsPlainPushOnLargeHTML(t *testing.T) {
	// The Fig. 5 mechanism: large HTML, CSS in head. Plain push sends
	// the CSS after the whole HTML (child stream); interleaving cuts in
	// after a small offset.
	build := func() *replay.Site {
		b := corpus.NewPage("example.test")
		b.CSS("/css/main.css", corpus.SimpleCSS([]string{"hero"}, 60))
		b.Div("hero", 500)
		b.Text(1200)
		b.PadHTML(150 * 1024)
		return b.Build("interleave")
	}
	base := "https://example.test/"
	cssURL := "https://example.test/css/main.css"
	cfg := DefaultConfig()

	plainPush := loadSite(t, build(), replay.PushList(base, cssURL), cfg, 1)
	interleaved := loadSite(t, build(),
		replay.PushList(base, cssURL).WithInterleave(base, replay.InterleaveSpec{
			OffsetBytes: 4096,
			Critical:    []string{cssURL},
		}), cfg, 1)
	if interleaved.FirstPaint >= plainPush.FirstPaint {
		t.Fatalf("interleaving did not improve first paint: interleave=%v plain=%v",
			interleaved.FirstPaint, plainPush.FirstPaint)
	}
	if interleaved.SpeedIndex >= plainPush.SpeedIndex {
		t.Fatalf("interleaving did not improve SpeedIndex: interleave=%v plain=%v",
			interleaved.SpeedIndex, plainPush.SpeedIndex)
	}
}

func TestHorizonOnMissingResource(t *testing.T) {
	// A page referencing a resource the DB does not contain: the replay
	// server 404s it, so the load still completes (404 body counts as
	// loaded).
	b := corpus.NewPage("example.test")
	b.RawBody("<img src=\"/img/missing.png\" width=\"10\" height=\"10\">\n")
	b.Text(100)
	site := b.Build("missing")
	res := loadSite(t, site, replay.NoPush(), DefaultConfig(), 1)
	if res.Outcome != OutcomeComplete {
		t.Fatal("404 resource blocked onload")
	}
}
