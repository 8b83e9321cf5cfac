package h2

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// startRealPair runs a server and client over a real net.Pipe with
// goroutine transports — validating that the protocol core is genuinely
// transport-independent.
func startRealPair(t *testing.T, handler func(sw *ServerStream, req Request)) (*Client, *IOConn, func()) {
	t.Helper()
	cconn, sconn := net.Pipe()
	srv := NewServer(DefaultSettings(), handler)
	cl := NewClient(clientSettingsLargeWindow())
	sio := RunIO(srv.Core, sconn)
	cio := RunIO(cl.Core, cconn)
	cleanup := func() {
		cio.Close()
		sio.Close()
	}
	return cl, cio, cleanup
}

func waitOrFail(t *testing.T, ch <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
	}
}

func TestRealPipeGetRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte("realpipe"), 8192)
	cl, cio, cleanup := startRealPair(t, func(sw *ServerStream, req Request) {
		sw.Respond(200, "text/html", body)
	})
	defer cleanup()

	var mu sync.Mutex
	var got []byte
	done := make(chan struct{})
	cio.locked(func(*Core) {
		cl.Request(Request{Method: "GET", Scheme: "https", Authority: "real", Path: "/"},
			RequestOpts{
				OnData: func(d DataView) {
					mu.Lock()
					got = d.AppendTo(got)
					mu.Unlock()
				},
				OnComplete: func(int) { close(done) },
			})
	})
	waitOrFail(t, done, "response never completed over net.Pipe")
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, body) {
		t.Fatalf("body mismatch: %d vs %d bytes", len(got), len(body))
	}
}

func TestRealPipePush(t *testing.T) {
	css := bytes.Repeat([]byte("c"), 4096)
	cl, cio, cleanup := startRealPair(t, func(sw *ServerStream, req Request) {
		psw := sw.Push(Request{Method: "GET", Scheme: "https", Authority: "real", Path: "/p.css"})
		sw.Respond(200, "text/html", []byte("<html/>"))
		if psw != nil {
			psw.Respond(200, "text/css", css)
		}
	})
	defer cleanup()

	var mu sync.Mutex
	var gotCSS []byte
	pushDone := make(chan struct{})
	cl.OnPush = func(parent, promised *ClientStream) bool {
		promised.OnData = func(d DataView) {
			mu.Lock()
			gotCSS = d.AppendTo(gotCSS)
			mu.Unlock()
		}
		promised.OnComplete = func(int) { close(pushDone) }
		return true
	}
	cio.locked(func(*Core) {
		cl.Request(Request{Method: "GET", Scheme: "https", Authority: "real", Path: "/"}, RequestOpts{})
	})
	waitOrFail(t, pushDone, "push never completed over net.Pipe")
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(gotCSS, css) {
		t.Fatalf("pushed css mismatch: %d vs %d bytes", len(gotCSS), len(css))
	}
}

func TestRealTCPLoopback(t *testing.T) {
	// Full TCP socket loopback: our h2 over a real kernel connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer ln.Close()
	body := bytes.Repeat([]byte("tcp!"), 50000)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv := NewServer(DefaultSettings(), func(sw *ServerStream, req Request) {
			sw.Respond(200, "text/plain", body)
		})
		RunIO(srv.Core, conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(clientSettingsLargeWindow())
	cio := RunIO(cl.Core, conn)
	defer cio.Close()
	var mu sync.Mutex
	total := 0
	done := make(chan struct{})
	cio.locked(func(*Core) {
		cl.Request(Request{Method: "GET", Scheme: "https", Authority: "tcp", Path: "/"},
			RequestOpts{
				OnData:     func(d DataView) { mu.Lock(); total += d.Len(); mu.Unlock() },
				OnComplete: func(int) { close(done) },
			})
	})
	waitOrFail(t, done, "TCP loopback response never completed")
	mu.Lock()
	defer mu.Unlock()
	if total != len(body) {
		t.Fatalf("got %d bytes want %d", total, len(body))
	}
}

func TestRealMultipleSequentialRequests(t *testing.T) {
	cl, cio, cleanup := startRealPair(t, func(sw *ServerStream, req Request) {
		sw.Respond(200, "text/plain", []byte(req.Path))
	})
	defer cleanup()
	for i, path := range []string{"/one", "/two", "/three"} {
		var mu sync.Mutex
		var got []byte
		done := make(chan struct{})
		cio.locked(func(*Core) {
			cl.Request(Request{Method: "GET", Scheme: "https", Authority: "r", Path: path},
				RequestOpts{
					OnData:     func(d DataView) { mu.Lock(); got = d.AppendTo(got); mu.Unlock() },
					OnComplete: func(int) { close(done) },
				})
		})
		waitOrFail(t, done, "request "+path+" never completed")
		mu.Lock()
		if string(got) != path {
			t.Fatalf("request %d: got %q want %q", i, got, path)
		}
		mu.Unlock()
	}
}
