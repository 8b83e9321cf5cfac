package replay

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/h2"
	"repro/internal/hpack"
	"repro/internal/netem"
	"repro/internal/page"
	"repro/internal/sim"
)

func mustURL(t *testing.T, s string) page.URL {
	t.Helper()
	u, err := page.ParseURL(s, page.URL{})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func internTestSite(t *testing.T) *Site {
	t.Helper()
	db := NewDB()
	db.Add(&Entry{
		URL: mustURL(t, "https://a.test/"), Status: 200, ContentType: "text/html",
		Body: []byte(`<html><head><link rel="stylesheet" href="/s.css"></head>` +
			`<body><img src="https://cdn.a.test/i.png"><p>hello</p></body></html>`),
	})
	db.Add(&Entry{
		URL: mustURL(t, "https://a.test/s.css"), Status: 200, ContentType: "text/css",
		Body: []byte(`@font-face{font-family:Fancy;src:url(/f.woff)} .x{color:red}`),
	})
	db.Add(&Entry{
		URL: mustURL(t, "https://a.test/f.woff"), Status: 200, ContentType: "font/woff2",
		Body: bytes.Repeat([]byte("f"), 2048),
	})
	db.Add(&Entry{
		URL: mustURL(t, "https://cdn.a.test/i.png"), Status: 200, ContentType: "image/png",
		Body: bytes.Repeat([]byte("i"), 4096),
	})
	return NewSite("intern-test", mustURL(t, "https://a.test/"), db)
}

// TestInternsCoverSiteNames pins the intern-table contract: every
// recorded entry and every prepare-time-visible reference gets a
// prepare-time-stable ID, conn groups agree with ConnKey coalescing,
// and the pre-built header lists match what the live stack would build.
func TestInternsCoverSiteNames(t *testing.T) {
	site := internTestSite(t)
	in := site.Prepared().Interns()

	for _, e := range site.DB.Entries() {
		id, ok := in.Lookup(e.URL.String())
		if !ok {
			t.Fatalf("entry %s not interned", e.URL.String())
		}
		if in.EntryOf(id) != e {
			t.Fatalf("entry %s: EntryOf mismatch", e.URL.String())
		}
		if eid, ok := in.IDOfEntry(e); !ok || eid != id {
			t.Fatalf("entry %s: IDOfEntry = %d,%v want %d", e.URL.String(), eid, ok, id)
		}
		wantReq := h2.Request{Method: "GET", Scheme: e.URL.Scheme, Authority: e.URL.Authority, Path: e.URL.Path}.Fields()
		gotReq := in.ReqFields(id)
		if len(gotReq) != len(wantReq) {
			t.Fatalf("entry %s: req fields %v want %v", e.URL.String(), gotReq, wantReq)
		}
		for i := range wantReq {
			if gotReq[i] != wantReq[i] {
				t.Fatalf("entry %s: req field %d = %v want %v", e.URL.String(), i, gotReq[i], wantReq[i])
			}
		}
		if !bytes.Equal(in.ReqPre(id).Block, hpack.PreEncode(wantReq).Block) {
			t.Fatalf("entry %s: pre-encoded request block mismatch", e.URL.String())
		}
		fields, pre, ok := in.RespFieldsOf(e)
		if !ok {
			t.Fatalf("entry %s: no response fields", e.URL.String())
		}
		wantResp := h2.ResponseFields(nil, e.Status, e.ContentType, len(e.Body))
		if len(fields) != len(wantResp) {
			t.Fatalf("entry %s: resp fields %v want %v", e.URL.String(), fields, wantResp)
		}
		if !bytes.Equal(pre.Block, hpack.PreEncode(wantResp).Block) {
			t.Fatalf("entry %s: pre-encoded response block mismatch", e.URL.String())
		}
		g := in.ConnGroupOf(id)
		if g < 0 || in.ConnKeyOf(g) != site.ConnKey(e.URL.Authority) {
			t.Fatalf("entry %s: conn group key %q want %q", e.URL.String(), in.ConnKeyOf(g), site.ConnKey(e.URL.Authority))
		}
	}

	// References named only by documents/stylesheets are interned too.
	if _, ok := in.Lookup("https://a.test/f.woff"); !ok {
		t.Fatal("stylesheet font URL not interned")
	}
	if _, ok := in.FamilyID("Fancy"); !ok {
		t.Fatal("font family not interned")
	}

	// Per-site ID spaces: a rewritten site (its own Prepared) must not
	// share this table.
	variant := site.NewVariant(site.DB.Clone())
	if variant.Prepared().Interns() != in {
		t.Fatal("variant site must share its base's interns")
	}
	other := NewSite("other", site.Base, site.DB.Clone())
	if other.Prepared().Interns() == in {
		t.Fatal("independent site shares the base's interns")
	}
}

// farmTestPlan is the push-plus-interleave plan the farm wire tests
// replay on internTestSite.
func farmTestPlan(site *Site) Plan {
	base := site.Base.String()
	css, font := "https://a.test/s.css", "https://a.test/f.woff"
	return PushList(base, css, font).WithInterleave(base, InterleaveSpec{
		OffsetBytes: 64, Critical: []string{css},
	})
}

// runFarmLoad performs one full h2-over-netem load of the site's base
// URL against a Farm with pushes and interleaving, hashing every byte
// the server sends to the client. It returns the hash, the number of
// frames the client received, the virtual completion time and the
// lowering the farm served from. Failures are reported with t.Errorf so
// it may run off the test goroutine.
func runFarmLoad(t *testing.T, site *Site, plan Plan, noPre bool) (hash uint64, frames int64, done time.Duration, rp *resolvedPlan) {
	s := sim.New(11)
	n := netem.New(s, netem.DSL())
	f := NewFarm(s, n, site, plan)
	f.NoPreEncode = noPre

	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	hash = fnvOffset
	var cl *h2.Client
	completed := 0
	f.Dial("a.test", func(end *netem.End) {
		settings := h2.DefaultSettings()
		cl = h2.NewClient(settings)
		cl.OnPush = func(parent, promised *h2.ClientStream) bool {
			promised.OnComplete = func(int) { completed++ }
			return true
		}
		h2.AttachSim(cl.Core, end)
		// Re-wrap the receiver to hash every wire byte the server sends
		// before the client consumes it.
		end.SetReceiver(func(b []byte) {
			for _, c := range b {
				hash = (hash ^ uint64(c)) * fnvPrime
			}
			cl.Core.Recv(b)
		})
		cl.Request(h2.Request{Method: "GET", Scheme: "https", Authority: "a.test", Path: "/"},
			h2.RequestOpts{OnComplete: func(int) { completed++; done = s.Now() }})
	})
	s.Run()
	if completed < 3 {
		t.Errorf("expected base + 2 pushed responses, completed %d", completed)
	}
	return hash, cl.Core.FramesRecvd, s.Now(), f.resolved
}

// TestFarmPreEncodeByteIdentical pins the tentpole's core invariant:
// with pre-encoded header blocks enabled the server's wire bytes are
// exactly those of the live HPACK encoder — and they stay so when the
// lowering that carries the blocks is one shared value read by farms on
// several goroutines instead of a private copy per farm.
func TestFarmPreEncodeByteIdentical(t *testing.T) {
	site := internTestSite(t)
	plan := farmTestPlan(site)
	preHash, preFrames, preDone, _ := runFarmLoad(t, site, plan, false)
	liveHash, liveFrames, liveDone, _ := runFarmLoad(t, site, plan, true)
	if preHash != liveHash {
		t.Errorf("wire byte hash: pre-encoded %x != live %x", preHash, liveHash)
	}
	// Recorded before the encoder's static matcher stopped building
	// name\x00value keys: the live encoder's bytes must not have moved.
	if recorded := uint64(0xb49bc873a5e2304f); liveHash != recorded {
		t.Errorf("wire byte hash: live %x, recorded %x", liveHash, recorded)
	}
	if preFrames != liveFrames {
		t.Errorf("frames received: pre-encoded %d != live %d", preFrames, liveFrames)
	}
	if preDone != liveDone {
		t.Errorf("completion time: pre-encoded %v != live %v", preDone, liveDone)
	}

	// A plan assembled field by field carries no handle, so its farm
	// lowers privately: the reference the shared lowering must match.
	private := Plan{Push: plan.Push, Interleave: plan.Interleave}
	privHash, _, _, privRP := runFarmLoad(t, site, private, false)
	if privHash != preHash {
		t.Errorf("wire byte hash: private lowering %x != shared %x", privHash, preHash)
	}

	shared := farmTestPlan(site) // fresh handle: the goroutines race to lower it
	const farms, rounds = 2, 3
	var wg sync.WaitGroup
	got := make([]*resolvedPlan, farms)
	for g := 0; g < farms; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h, _, _, rp := runFarmLoad(t, site, shared, false)
				if h != privHash {
					t.Errorf("farm %d round %d: wire byte hash %x, private lowering %x", g, r, h, privHash)
				}
				if got[g] != nil && got[g] != rp {
					t.Errorf("farm %d round %d: plan was lowered again", g, r)
				}
				got[g] = rp
			}
		}(g)
	}
	wg.Wait()
	if got[0] != got[1] {
		t.Error("two farms replaying one plan hold different lowerings")
	}
	if got[0] == privRP {
		t.Error("a handle-less plan's private lowering was shared")
	}
}

// TestFarmResolvedPlanReuse verifies a warm farm does not re-lower an
// unchanged (site, plan) pair, and re-lowers when either changes.
func TestFarmResolvedPlanReuse(t *testing.T) {
	site := internTestSite(t)
	base := site.Base.String()
	plan := PushList(base, "https://a.test/s.css")
	s := sim.New(1)
	n := netem.New(s, netem.DSL())
	f := NewFarm(s, n, site, plan)
	first := f.resolved
	if len(first.triggers) != 1 {
		t.Fatalf("triggers = %d, want 1", len(first.triggers))
	}
	// Same site and same plan: Reset must keep the lowering.
	f.Reset(s, n, site, plan)
	if f.resolved != first {
		t.Fatal("unchanged (site, plan) was re-lowered on Reset")
	}
	other := PushList(base, "https://a.test/f.woff")
	f.Reset(s, n, site, other)
	if len(f.resolved.triggers) != 1 {
		t.Fatalf("triggers after plan change = %d", len(f.resolved.triggers))
	}
	for _, rt := range f.resolved.triggers {
		if len(rt.pushes) != 1 || rt.pushes[0].URL.Path != "/f.woff" {
			t.Fatalf("re-lowered plan pushes %v", rt.pushes)
		}
	}
	// Same plan, other site object: the lowering holds that site's
	// entries, so it must not be carried over.
	twin := internTestSite(t)
	f.Reset(s, n, twin, other)
	for te := range f.resolved.triggers {
		if te != twin.DB.Get(base) {
			t.Fatal("lowering of another site served after a site change")
		}
	}
	// WithInterleave leaves its receiver's directives and lowering alone.
	withSpec := other.WithInterleave(base, InterleaveSpec{OffsetBytes: 8})
	if other.Interleave != nil || withSpec.low == other.low {
		t.Fatal("WithInterleave aliased its receiver")
	}
}

// TestLoweringNeverOutlivesItsPlan drops each plan after one Reset and
// collects before building the next: were a lowering identified by an
// address that nothing keeps alive, the allocator would hand a later
// plan's handle the same address and the farm would go on serving the
// dead plan's pushes.
func TestLoweringNeverOutlivesItsPlan(t *testing.T) {
	site := internTestSite(t)
	base := site.Base.String()
	paths := []string{"/s.css", "/f.woff"}
	s := sim.New(1)
	n := netem.New(s, netem.DSL())
	f := NewFarm(s, n, site, NoPush())
	for i := 0; i < 200; i++ {
		want := paths[i%2]
		f.Reset(s, n, site, PushList(base, "https://a.test"+want))
		runtime.GC()
		rt := f.resolved.triggers[site.DB.Get(base)]
		if rt == nil || len(rt.pushes) != 1 || rt.pushes[0].URL.Path != want {
			t.Fatalf("plan %d: farm serves %+v, want a push of %s", i, rt, want)
		}
	}
}
