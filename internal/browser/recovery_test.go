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

// loadSiteFaulted runs one page load with a fault script: inject is
// called before the load starts and schedules fault strikes on the sim
// clock, mirroring what the testbed's fault injector does from above.
func loadSiteFaulted(t *testing.T, site *replay.Site, plan replay.Plan, cfg Config, seed int64,
	inject func(s *sim.Sim, n *netem.Network, farm *replay.Farm, ld *Loader)) *Result {
	t.Helper()
	s := sim.New(seed)
	n := netem.New(s, netem.DSL())
	farm := replay.NewFarm(s, n, site, plan)
	ld := New(s, farm, cfg)
	inject(s, n, farm, ld)
	ld.Start()
	s.Run()
	return ld.Result()
}

// recoverySite is a page with enough body to still be in flight when
// mid-load faults strike on the DSL link.
func recoverySite() *replay.Site {
	b := corpus.NewPage("example.test")
	b.CSS("/css/main.css", corpus.SimpleCSS([]string{"hero"}, 200))
	b.Div("hero", 400)
	b.Image("/img/hero.png", 1280, 300, 100*1024)
	b.Script("/js/app.js", 30*1024, 5, false, false)
	b.Text(1200)
	b.PadHTML(300 * 1024)
	return b.Build("recovery")
}

func TestFaultFreeLoadIsCompleteWithNoFailures(t *testing.T) {
	res := loadSite(t, recoverySite(), replay.NoPush(), DefaultConfig(), 1)
	if res.Outcome != OutcomeComplete {
		t.Fatalf("Outcome = %v, want complete", res.Outcome)
	}
	if res.FailedResources != 0 {
		t.Fatalf("FailedResources = %d on the fault-free path", res.FailedResources)
	}
	for _, rt := range res.Timings {
		if rt.Failed || rt.Cause != FailNone {
			t.Fatalf("fault-free resource %s marked failed (%v)", rt.URL, rt.Cause)
		}
	}
}

func TestLinkFlapMidBodyResumes(t *testing.T) {
	site := recoverySite()
	cfg := DefaultConfig()
	clean := loadSite(t, site, replay.NoPush(), cfg, 1)
	flapped := loadSiteFaulted(t, site, replay.NoPush(), cfg, 1,
		func(s *sim.Sim, n *netem.Network, _ *replay.Farm, _ *Loader) {
			s.At(150*time.Millisecond, n.CutLink)
			s.At(350*time.Millisecond, n.ResumeLink)
		})
	if flapped.Outcome != OutcomeComplete {
		t.Fatalf("Outcome after flap = %v, want complete (rtx recovery)", flapped.Outcome)
	}
	if flapped.FailedResources != 0 {
		t.Fatalf("FailedResources = %d after transient flap", flapped.FailedResources)
	}
	if flapped.PLT <= clean.PLT {
		t.Fatalf("flap did not cost time: flapped=%v clean=%v", flapped.PLT, clean.PLT)
	}
	// Without retries the flap costs at most the outage plus rtx
	// backoff; anywhere near the horizon means something hung.
	if flapped.PLT > clean.PLT+5*time.Second {
		t.Fatalf("flap recovery took too long: flapped=%v clean=%v", flapped.PLT, clean.PLT)
	}
}

func TestServerStallTimeoutRetrySucceeds(t *testing.T) {
	site := recoverySite()
	cfg := DefaultConfig()
	cfg.ResourceTimeout = 400 * time.Millisecond
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 100 * time.Millisecond
	clean := loadSite(t, site, replay.NoPush(), DefaultConfig(), 1)
	stalled := loadSiteFaulted(t, site, replay.NoPush(), cfg, 1,
		func(s *sim.Sim, _ *netem.Network, farm *replay.Farm, _ *Loader) {
			s.At(150*time.Millisecond, func() { farm.Stall(800 * time.Millisecond) })
		})
	if stalled.Outcome != OutcomeComplete {
		t.Fatalf("Outcome = %v, want complete after retry", stalled.Outcome)
	}
	if stalled.FailedResources != 0 {
		t.Fatalf("FailedResources = %d, want 0 (retries should recover)", stalled.FailedResources)
	}
	if stalled.Requests <= clean.Requests {
		t.Fatalf("no retry requests issued: stalled=%d clean=%d", stalled.Requests, clean.Requests)
	}
}

func TestGoAwayDiscardsPushedAndRerequests(t *testing.T) {
	site := recoverySite()
	base := "https://example.test/"
	imgURL := "https://example.test/img/hero.png"
	cfg := DefaultConfig()
	cfg.ResourceTimeout = 2 * time.Second
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 100 * time.Millisecond
	// Interleave the pushed image into the HTML stream so its bytes are
	// mid-flight (not queued behind the full HTML) when the GOAWAY
	// strikes: those delivered-then-discarded bytes are the wasted-push
	// accounting under test.
	plan := replay.PushList(base, imgURL).WithInterleave(base, replay.InterleaveSpec{
		OffsetBytes: 4096,
		Critical:    []string{imgURL},
	})
	res := loadSiteFaulted(t, site, plan, cfg, 1,
		func(s *sim.Sim, _ *netem.Network, farm *replay.Farm, _ *Loader) {
			s.At(200*time.Millisecond, func() {
				if farm.InjectGoAway() == 0 {
					t.Error("no connection was active at the GOAWAY instant")
				}
			})
		})
	if res.Outcome != OutcomeComplete {
		t.Fatalf("Outcome = %v, want complete (re-request on a fresh conn)", res.Outcome)
	}
	if res.FailedResources != 0 {
		t.Fatalf("FailedResources = %d after recovery", res.FailedResources)
	}
	// The going-away connection is abandoned: the load needed a fresh one.
	if res.Conns < 2 {
		t.Fatalf("Conns = %d, want a redial after GOAWAY", res.Conns)
	}
	// The pushed CSS died with the connection: its delivered bytes are
	// wasted push bytes, and the re-request happened over the new conn.
	if res.BytesPushedWasted == 0 {
		t.Fatal("pushed stream died with the conn but no wasted push bytes counted")
	}
}

func TestPushResetFallsBackToRequest(t *testing.T) {
	site := recoverySite()
	base := "https://example.test/"
	cssURL := "https://example.test/css/main.css"
	cfg := DefaultConfig()
	cfg.ResourceTimeout = 2 * time.Second
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 100 * time.Millisecond
	res := loadSiteFaulted(t, site, replay.PushList(base, cssURL), cfg, 1,
		func(s *sim.Sim, _ *netem.Network, farm *replay.Farm, _ *Loader) {
			s.At(150*time.Millisecond, func() { farm.InjectPushResets() })
		})
	if res.Outcome != OutcomeComplete {
		t.Fatalf("Outcome = %v, want complete (reset push re-requested)", res.Outcome)
	}
	if res.FailedResources != 0 {
		t.Fatalf("FailedResources = %d: a reset push must not fail the resource", res.FailedResources)
	}
}

func TestDisablePushMidLoadRefusesPushes(t *testing.T) {
	site := recoverySite()
	base := "https://example.test/"
	cssURL := "https://example.test/css/main.css"
	cfg := DefaultConfig()
	res := loadSiteFaulted(t, site, replay.PushList(base, cssURL), cfg, 1,
		func(s *sim.Sim, _ *netem.Network, _ *replay.Farm, ld *Loader) {
			s.At(1*time.Millisecond, ld.DisablePush)
		})
	if res.Outcome != OutcomeComplete {
		t.Fatalf("Outcome = %v, want complete without push", res.Outcome)
	}
	if res.PushedAccepted != 0 {
		t.Fatalf("PushedAccepted = %d after push disable", res.PushedAccepted)
	}
}

func TestPermanentLinkCutTerminatesAtHorizon(t *testing.T) {
	site := recoverySite()
	cfg := DefaultConfig()
	cfg.ResourceTimeout = 2 * time.Second
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 250 * time.Millisecond
	// loadSiteFaulted returning at all is the no-hang guarantee: with
	// the link cut forever, unterminated retransmit timers would keep
	// the sim alive indefinitely.
	res := loadSiteFaulted(t, site, replay.NoPush(), cfg, 1,
		func(s *sim.Sim, n *netem.Network, _ *replay.Farm, _ *Loader) {
			s.At(200*time.Millisecond, n.CutLink)
		})
	if res.Outcome == OutcomeComplete {
		t.Fatal("load claims completion under a permanent link cut")
	}
	if res.FailedResources == 0 {
		t.Fatal("no failed resources recorded under a permanent link cut")
	}
	if res.PLT != cfg.MaxDuration {
		t.Fatalf("PLT = %v, want the horizon %v", res.PLT, cfg.MaxDuration)
	}
	causes := 0
	for _, rt := range res.Timings {
		if rt.Failed && rt.Cause != FailNone {
			causes++
		}
	}
	if causes == 0 {
		t.Fatal("no failure causes recorded on timings")
	}
}

func TestRecoveryDeterministic(t *testing.T) {
	site := recoverySite()
	cfg := DefaultConfig()
	cfg.ResourceTimeout = 400 * time.Millisecond
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 100 * time.Millisecond
	run := func() *Result {
		return loadSiteFaulted(t, site, replay.NoPush(), cfg, 7,
			func(s *sim.Sim, n *netem.Network, farm *replay.Farm, _ *Loader) {
				s.At(200*time.Millisecond, func() { farm.Stall(600 * time.Millisecond) })
				s.At(300*time.Millisecond, n.CutLink)
				s.At(450*time.Millisecond, n.ResumeLink)
			})
	}
	a, b := run(), run()
	if a.PLT != b.PLT || a.SpeedIndex != b.SpeedIndex ||
		a.Outcome != b.Outcome || a.FailedResources != b.FailedResources ||
		a.Requests != b.Requests {
		t.Fatalf("same seed diverged under faults:\n%+v\n%+v", a, b)
	}
}

// TestScriptFailedBeforeParserReachesIt: a script that fails terminally
// while the parser is still blocked further up the page settles when the
// parser reaches it, for a parser-blocking and for a deferred script.
// The slow script up front holds the parser for seconds while the big
// script, found by the preload scanner, runs out of its fetch budget.
func TestScriptFailedBeforeParserReachesIt(t *testing.T) {
	for _, attr := range []string{"", " defer"} {
		db := replay.NewDB()
		base := page.URL{Scheme: "https", Authority: "example.test", Path: "/"}
		db.Add(&replay.Entry{URL: base, Status: 200, ContentType: page.ContentTypeFor(page.KindHTML),
			Body: []byte(`<html><head><title>t</title></head><body>
<script src="/js/slow.js"></script>
<script src="/js/big.js"` + attr + `></script>
<p>text</p></body></html>`)})
		for _, js := range []struct {
			path   string
			size   int
			execMS float64
		}{{"/js/slow.js", 1024, 3000}, {"/js/big.js", 4 << 20, 0}} {
			db.Add(&replay.Entry{URL: page.URL{Scheme: "https", Authority: "example.test", Path: js.path},
				Status: 200, ContentType: page.ContentTypeFor(page.KindJS),
				Body: make([]byte, js.size), Meta: page.Meta{ExecMS: js.execMS}})
		}
		cfg := DefaultConfig()
		cfg.ResourceTimeout = time.Second
		res := loadSite(t, replay.NewSite("late-failure", base, db), replay.NoPush(), cfg, 1)
		if res.FailedResources != 1 {
			t.Fatalf("script%s: FailedResources = %d, want 1 (the big script)", attr, res.FailedResources)
		}
		if res.PLT >= cfg.MaxDuration {
			t.Fatalf("script%s: load ran to the horizon %v: the failed script never settled", attr, cfg.MaxDuration)
		}
	}
}
