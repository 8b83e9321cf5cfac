package main

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replay"
)

// closeCounter is a net.Conn that counts Close calls.
type closeCounter struct {
	net.Conn
	closes atomic.Int32
}

func (c *closeCounter) Close() error {
	c.closes.Add(1)
	return c.Conn.Close()
}

// TestServeConnClosesPeerClosedConn: when the client hangs up,
// serveConn returns and closes its end of the connection exactly once,
// so a peer-closed socket does not linger until garbage collection.
func TestServeConnClosesPeerClosedConn(t *testing.T) {
	site, err := pickSite("s2", "")
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	conn := &closeCounter{Conn: server}
	done := make(chan struct{})
	go func() {
		serveConn(conn, site, replay.Plan{})
		close(done)
	}()
	client.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serveConn did not return after the client closed")
	}
	if n := conn.closes.Load(); n != 1 {
		t.Fatalf("serveConn closed its end %d times, want 1", n)
	}
}
