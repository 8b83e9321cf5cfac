package h2

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"repro/internal/hpack"
	"repro/internal/netem"
	"repro/internal/sim"
)

// simPair is a client+server connection pair over the emulated network.
type simPair struct {
	s   *sim.Sim
	net *netem.Network
	srv *Server
	cl  *Client
}

// newSimPair dials a connection and attaches the endpoints at connect
// time; onConnect runs once both sides are live.
func newSimPair(handler func(sw *ServerStream, req Request), clientSettings Settings, onConnect func(p *simPair)) *simPair {
	s := sim.New(1)
	n := netem.New(s, netem.DSL())
	p := &simPair{s: s, net: n}
	n.Dial(func(c *netem.Conn) {
		p.srv = NewServer(DefaultSettings(), handler)
		p.cl = NewClient(clientSettings)
		new(SimEndpoint).Attach(p.srv.Core, c.ServerEnd())
		new(SimEndpoint).Attach(p.cl.Core, c.ClientEnd())
		onConnect(p)
	})
	return p
}

func clientSettingsLargeWindow() Settings {
	s := DefaultSettings()
	s.InitialWindowSize = 6 * 1024 * 1024 // Chromium-like stream windows
	return s
}

func TestSimGetRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte("abc"), 10000)
	var got []byte
	var status int
	done := false
	p := newSimPair(func(sw *ServerStream, req Request) {
		if req.Path != "/index.html" || req.Method != "GET" {
			t.Errorf("server saw %s %s", req.Method, req.Path)
		}
		sw.Respond(200, "text/html", body)
	}, clientSettingsLargeWindow(), func(p *simPair) {
		// The client keeps no response status, so read it off the wire.
		onHeaders := p.cl.Core.OnHeaders
		p.cl.Core.OnHeaders = func(st *Stream, fields []hpack.HeaderField, endStream bool) {
			for _, f := range fields {
				if f.Name == ":status" {
					status, _ = strconv.Atoi(f.Value)
				}
			}
			onHeaders(st, fields, endStream)
		}
		p.cl.Request(Request{Method: "GET", Scheme: "https", Authority: "example.com", Path: "/index.html"},
			RequestOpts{
				OnData:     func(d DataView) { got = d.AppendTo(got) },
				OnComplete: func(total int) { done = true },
			})
	})
	p.s.Run()
	if !done {
		t.Fatal("response never completed")
	}
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body mismatch: got %d bytes want %d", len(got), len(body))
	}
}

func TestSimEmptyBodyResponse(t *testing.T) {
	done := false
	p := newSimPair(func(sw *ServerStream, req Request) {
		sw.Respond(204, "", nil)
	}, clientSettingsLargeWindow(), func(p *simPair) {
		p.cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
			RequestOpts{OnComplete: func(total int) {
				if total != 0 {
					t.Errorf("total = %d", total)
				}
				done = true
			}})
	})
	p.s.Run()
	if !done {
		t.Fatal("204 never completed")
	}
}

func TestSimPushAccepted(t *testing.T) {
	html := bytes.Repeat([]byte("<p>hi</p>"), 500)
	css := bytes.Repeat([]byte("a{b:c}"), 300)
	var gotHTML, gotCSS []byte
	pushSeen := false
	p := newSimPair(func(sw *ServerStream, req Request) {
		psw := sw.Push(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/main.css"})
		if psw == nil {
			t.Error("Push returned nil with push enabled")
			return
		}
		sw.Respond(200, "text/html", html)
		psw.Respond(200, "text/css", css)
	}, clientSettingsLargeWindow(), func(p *simPair) {
		p.cl.OnPush = func(parent, promised *ClientStream) bool {
			pushSeen = true
			if promised.Req.Path != "/main.css" {
				t.Errorf("promised path %s", promised.Req.Path)
			}
			promised.OnData = func(d DataView) { gotCSS = d.AppendTo(gotCSS) }
			return true
		}
		p.cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
			RequestOpts{OnData: func(d DataView) { gotHTML = d.AppendTo(gotHTML) }})
	})
	p.s.Run()
	if !pushSeen {
		t.Fatal("push promise never surfaced")
	}
	if !bytes.Equal(gotHTML, html) || !bytes.Equal(gotCSS, css) {
		t.Fatalf("payload mismatch: html %d/%d css %d/%d", len(gotHTML), len(html), len(gotCSS), len(css))
	}
	if p.cl.Core.PushesRecvd != 1 {
		t.Fatalf("PushesRecvd = %d", p.cl.Core.PushesRecvd)
	}
}

func TestSimPushDisabledBySettings(t *testing.T) {
	// The paper's no-push baseline: SETTINGS_ENABLE_PUSH=0 at startup.
	noPush := clientSettingsLargeWindow()
	noPush.EnablePush = false
	pushAttempted := false
	done := false
	p := newSimPair(func(sw *ServerStream, req Request) {
		if psw := sw.Push(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/x.css"}); psw != nil {
			pushAttempted = true
		}
		sw.Respond(200, "text/html", []byte("<html></html>"))
	}, noPush, func(p *simPair) {
		p.cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
			RequestOpts{OnComplete: func(int) { done = true }})
	})
	p.s.Run()
	if pushAttempted {
		t.Fatal("server pushed although client disabled push")
	}
	if !done {
		t.Fatal("response never completed")
	}
}

func TestSimClientCancelsPush(t *testing.T) {
	css := bytes.Repeat([]byte("x"), 200*1024)
	var cssBytes int
	htmlDone := false
	p := newSimPair(func(sw *ServerStream, req Request) {
		psw := sw.Push(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/big.css"})
		sw.Respond(200, "text/html", []byte("<html></html>"))
		psw.Respond(200, "text/css", css)
	}, clientSettingsLargeWindow(), func(p *simPair) {
		p.cl.OnPush = func(parent, promised *ClientStream) bool {
			promised.OnData = func(d DataView) { cssBytes += d.Len() }
			return false // reject: e.g. already cached
		}
		p.cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
			RequestOpts{OnComplete: func(int) { htmlDone = true }})
	})
	p.s.Run()
	if !htmlDone {
		t.Fatal("html never completed")
	}
	// The RST races with in-flight data (the paper notes objects can
	// already be in flight), but the vast majority must be cancelled.
	if cssBytes > len(css)/2 {
		t.Fatalf("cancelled push still delivered %d of %d bytes", cssBytes, len(css))
	}
}

// TestSimDefaultSchedulerPushAfterParent verifies the h2o default: a push
// stream is a child of its parent and is starved until the parent
// response has been fully sent (Fig. 5a of the paper).
func TestSimDefaultSchedulerPushAfterParent(t *testing.T) {
	html := bytes.Repeat([]byte("H"), 120*1024)
	css := bytes.Repeat([]byte("C"), 20*1024)
	var firstCSSAt, htmlDoneAt time.Duration
	s := sim.New(2)
	n := netem.New(s, netem.DSL())
	n.Dial(func(c *netem.Conn) {
		srv := NewServer(DefaultSettings(), func(sw *ServerStream, req Request) {
			psw := sw.Push(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/s.css"})
			sw.Respond(200, "text/html", html)
			psw.Respond(200, "text/css", css)
		})
		cl := NewClient(clientSettingsLargeWindow())
		new(SimEndpoint).Attach(srv.Core, c.ServerEnd())
		new(SimEndpoint).Attach(cl.Core, c.ClientEnd())
		cl.OnPush = func(parent, promised *ClientStream) bool {
			promised.OnData = func(d DataView) {
				if firstCSSAt == 0 {
					firstCSSAt = s.Now()
				}
			}
			return true
		}
		cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
			RequestOpts{OnComplete: func(int) { htmlDoneAt = s.Now() }})
	})
	s.Run()
	if firstCSSAt == 0 || htmlDoneAt == 0 {
		t.Fatalf("missing events: css=%v htmlDone=%v", firstCSSAt, htmlDoneAt)
	}
	if firstCSSAt < htmlDoneAt {
		t.Fatalf("default scheduler interleaved push (css first byte %v < html done %v)", firstCSSAt, htmlDoneAt)
	}
}

// TestSimInterleavingScheduler verifies the paper's modification: the
// parent stream pauses after a byte offset, pushed critical resources are
// sent, then the parent resumes (Sec. 5, Fig. 5a right side).
func TestSimInterleavingScheduler(t *testing.T) {
	html := bytes.Repeat([]byte("H"), 120*1024)
	css := bytes.Repeat([]byte("C"), 20*1024)
	const offset = 4096
	var order []string
	htmlBytes := 0
	s := sim.New(3)
	n := netem.New(s, netem.DSL())
	n.Dial(func(c *netem.Conn) {
		srv := NewServer(DefaultSettings(), func(sw *ServerStream, req Request) {
			psw := sw.Push(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/s.css"})
			sw.Interleave(offset, []uint32{psw.St.ID})
			sw.Respond(200, "text/html", html)
			psw.Respond(200, "text/css", css)
		})
		cl := NewClient(clientSettingsLargeWindow())
		new(SimEndpoint).Attach(srv.Core, c.ServerEnd())
		new(SimEndpoint).Attach(cl.Core, c.ClientEnd())
		cl.OnPush = func(parent, promised *ClientStream) bool {
			promised.OnComplete = func(int) { order = append(order, "css-done") }
			return true
		}
		cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
			RequestOpts{
				OnData: func(d DataView) {
					was := htmlBytes
					htmlBytes += d.Len()
					if was < offset && htmlBytes >= offset {
						order = append(order, "html-offset")
					}
				},
				OnComplete: func(int) { order = append(order, "html-done") },
			})
	})
	s.Run()
	want := []string{"html-offset", "css-done", "html-done"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSimExclusiveChainOrdering verifies that client priorities with
// dependency chains produce strict response ordering (the Chromium
// behaviour behind the paper's Fig. 5b no-push curve).
func TestSimExclusiveChainOrdering(t *testing.T) {
	big := bytes.Repeat([]byte("A"), 80*1024)
	small := bytes.Repeat([]byte("B"), 20*1024)
	var finished []string
	s := sim.New(4)
	n := netem.New(s, netem.DSL())
	n.Dial(func(c *netem.Conn) {
		srv := NewServer(DefaultSettings(), func(sw *ServerStream, req Request) {
			if req.Path == "/a" {
				sw.Respond(200, "text/html", big)
			} else {
				sw.Respond(200, "text/css", small)
			}
		})
		cl := NewClient(clientSettingsLargeWindow())
		new(SimEndpoint).Attach(srv.Core, c.ServerEnd())
		new(SimEndpoint).Attach(cl.Core, c.ClientEnd())
		csA := cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/a"},
			RequestOpts{OnComplete: func(int) { finished = append(finished, "a") }})
		// /b depends on /a: must not complete before it.
		cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/b"},
			RequestOpts{
				Priority:   &PriorityParam{ParentID: csA.St.ID, Weight: 219},
				OnComplete: func(int) { finished = append(finished, "b") },
			})
	})
	s.Run()
	if len(finished) != 2 || finished[0] != "a" || finished[1] != "b" {
		t.Fatalf("completion order %v, want [a b]", finished)
	}
}

func TestSimSmallFlowControlWindowStillCompletes(t *testing.T) {
	// A tiny stream window forces many WINDOW_UPDATE round trips but the
	// transfer must still complete.
	small := DefaultSettings()
	small.InitialWindowSize = 2048
	body := bytes.Repeat([]byte("z"), 64*1024)
	got := 0
	s := sim.New(5)
	n := netem.New(s, netem.DSL())
	n.Dial(func(c *netem.Conn) {
		srv := NewServer(DefaultSettings(), func(sw *ServerStream, req Request) {
			sw.Respond(200, "application/octet-stream", body)
		})
		cl := NewClient(small)
		new(SimEndpoint).Attach(srv.Core, c.ServerEnd())
		new(SimEndpoint).Attach(cl.Core, c.ClientEnd())
		cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
			RequestOpts{OnData: func(d DataView) { got += d.Len() }})
	})
	s.Run()
	if got != len(body) {
		t.Fatalf("got %d bytes, want %d", got, len(body))
	}
}

func TestSimLargeHeadersContinuation(t *testing.T) {
	// A header block exceeding the max frame size must be split into
	// CONTINUATION frames and reassembled.
	bigVal := string(bytes.Repeat([]byte("v"), 40*1024))
	var got string
	p := newSimPair(func(sw *ServerStream, req Request) {
		for _, f := range req.Header {
			if f.Name == "x-big" {
				got = f.Value
			}
		}
		sw.Respond(200, "", nil)
	}, clientSettingsLargeWindow(), func(p *simPair) {
		p.cl.Request(Request{
			Method: "GET", Scheme: "https", Authority: "a", Path: "/",
			Header: []hpack.HeaderField{{Name: "x-big", Value: bigVal}},
		}, RequestOpts{})
	})
	p.s.Run()
	if got != bigVal {
		t.Fatalf("header lost in continuation: got %d bytes want %d", len(got), len(bigVal))
	}
}

func TestSimMultipleRequestsMultiplexed(t *testing.T) {
	bodies := map[string][]byte{
		"/a": bytes.Repeat([]byte("a"), 30000),
		"/b": bytes.Repeat([]byte("b"), 20000),
		"/c": bytes.Repeat([]byte("c"), 10000),
	}
	got := map[string]int{}
	p := newSimPair(func(sw *ServerStream, req Request) {
		sw.Respond(200, "text/plain", bodies[req.Path])
	}, clientSettingsLargeWindow(), func(p *simPair) {
		for _, path := range []string{"/a", "/b", "/c"} {
			path := path
			p.cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: path},
				RequestOpts{OnComplete: func(total int) { got[path] = total }})
		}
	})
	p.s.Run()
	for path, body := range bodies {
		if got[path] != len(body) {
			t.Errorf("%s: got %d bytes, want %d", path, got[path], len(body))
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() time.Duration {
		var doneAt time.Duration
		s := sim.New(42)
		n := netem.New(s, netem.DSL())
		n.Dial(func(c *netem.Conn) {
			srv := NewServer(DefaultSettings(), func(sw *ServerStream, req Request) {
				sw.Respond(200, "text/html", bytes.Repeat([]byte("x"), 77777))
			})
			cl := NewClient(clientSettingsLargeWindow())
			new(SimEndpoint).Attach(srv.Core, c.ServerEnd())
			new(SimEndpoint).Attach(cl.Core, c.ClientEnd())
			cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
				RequestOpts{OnComplete: func(int) { doneAt = s.Now() }})
		})
		s.Run()
		return doneAt
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
