package h2

import (
	"io"
	"sync"
)

// IOConn runs a Core over a real byte-stream transport (net.Conn,
// net.Pipe, TLS...). It exists for two reasons: it proves the protocol
// core is genuinely transport-agnostic (the same state machine the
// simulator drives), and it powers cmd/replay-server, which serves
// recorded sites to real HTTP/2 clients over TCP.
//
// Core callbacks fire on the reader goroutine while holding the
// connection lock; they must not block.
type IOConn struct {
	core *Core
	rw   io.ReadWriteCloser

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	err    error

	done chan struct{}
}

// RunIO attaches core to rw and starts the reader and writer goroutines.
// The caller must have installed all callbacks beforehand.
func RunIO(core *Core, rw io.ReadWriteCloser) *IOConn {
	c := &IOConn{core: core, rw: rw, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	core.OnWritable = func() { c.cond.Signal() }
	c.mu.Lock()
	core.Start()
	c.mu.Unlock()
	go c.readLoop()
	go c.writeLoop()
	return c
}

// locked runs fn while holding the connection lock, for safely invoking
// Core methods (issuing requests, responding) from other goroutines.
func (c *IOConn) locked(fn func(core *Core)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.core)
	c.cond.Signal()
}

// Err returns the terminal transport error, if any.
func (c *IOConn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Done is closed when the reader loop exits.
func (c *IOConn) Done() <-chan struct{} { return c.done }

// Close tears down the transport.
func (c *IOConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	return c.rw.Close()
}

func (c *IOConn) readLoop() {
	defer close(c.done)
	buf := make([]byte, 32*1024)
	for {
		n, err := c.rw.Read(buf)
		if n > 0 {
			// Core.Recv retains the slice (zero-copy frame parsing), so
			// hand it a right-sized copy and keep reusing buf.
			chunk := make([]byte, n)
			copy(chunk, buf[:n])
			c.mu.Lock()
			c.core.Recv(chunk)
			c.cond.Signal()
			c.mu.Unlock()
		}
		if err != nil {
			c.mu.Lock()
			if c.err == nil && err != io.EOF {
				c.err = err
			}
			c.closed = true
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
	}
}

// writeLoop drains the core into the transport. AppendWrite's parts are
// borrowed from the connection, so they are copied into chunk while the
// lock is held and nothing borrowed is written after Unlock. parts and
// chunk are reused from write to write: io.Writer does not retain chunk.
func (c *IOConn) writeLoop() {
	var parts [][]byte
	var chunk []byte
	for {
		c.mu.Lock()
		for !c.closed && !c.core.hasPending() {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		chunk = chunk[:0]
		for len(chunk) <= 64*1024 {
			parts = c.core.AppendWrite(parts[:0], 0)
			if len(parts) == 0 {
				break
			}
			for i, p := range parts {
				chunk = append(chunk, p...)
				parts[i] = nil
			}
		}
		c.mu.Unlock()
		if len(chunk) == 0 {
			continue
		}
		if _, err := c.rw.Write(chunk); err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = err
			}
			c.closed = true
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
	}
}
