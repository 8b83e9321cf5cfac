package netem

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func newNet(t *testing.T, prof Profile) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(1)
	return s, New(s, prof)
}

// transfer sends size bytes server->client and returns the virtual time at
// which the last byte arrived, measured from connectEnd.
func transfer(t *testing.T, prof Profile, size int) time.Duration {
	t.Helper()
	s, n := newNet(t, prof)
	var done, start time.Duration
	received := 0
	n.Dial(func(c *Conn) {
		start = s.Now()
		c.ClientEnd().SetReceiver(func(b []byte) {
			received += len(b)
			if received >= size {
				done = s.Now()
			}
		})
		c.ServerEnd().Write(make([]byte, size))
	})
	s.Run()
	if received != size {
		t.Fatalf("received %d bytes, want %d", received, size)
	}
	return done - start
}

func TestProfileValidate(t *testing.T) {
	if err := DSL().Validate(); err != nil {
		t.Fatalf("DSL profile invalid: %v", err)
	}
	bad := DSL()
	bad.DownRate = 0
	if bad.Validate() == nil {
		t.Fatal("zero rate accepted")
	}
	bad = DSL()
	bad.LossRate = 1.5
	if bad.Validate() == nil {
		t.Fatal("loss rate 1.5 accepted")
	}
	bad = DSL()
	bad.MSS = -1
	if bad.Validate() == nil {
		t.Fatal("negative MSS accepted")
	}
}

func TestHandshakeTakesConfiguredRTTs(t *testing.T) {
	s, n := newNet(t, DSL())
	var connectAt time.Duration
	n.Dial(func(c *Conn) { connectAt = s.Now() })
	s.Run()
	want := 2 * 50 * time.Millisecond
	if connectAt != want {
		t.Fatalf("connectEnd at %v, want %v", connectAt, want)
	}
}

func TestSmallTransferWithinInitialWindow(t *testing.T) {
	// 4 KB fits in IW10: one flight => ~RTT/2 prop + serialization.
	d := transfer(t, DSL(), 4096)
	if d < 25*time.Millisecond || d > 40*time.Millisecond {
		t.Fatalf("4KB transfer took %v, want roughly 25-40ms", d)
	}
}

func TestLargeTransferNeedsMultipleRTTs(t *testing.T) {
	// 200 KB exceeds IW10 (≈14.6 KB): slow start needs several round trips.
	d := transfer(t, DSL(), 200*1024)
	if d < 100*time.Millisecond {
		t.Fatalf("200KB transfer took only %v; slow start should need multiple RTTs", d)
	}
	// But far less than serialization alone would suggest if the window
	// never grew (sanity upper bound).
	if d > 2*time.Second {
		t.Fatalf("200KB transfer took %v, window apparently never grew", d)
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	// A 2 MB transfer should be bandwidth-limited: time ≈ size/rate.
	size := 2 * 1024 * 1024
	d := transfer(t, DSL(), size)
	ideal := txTime(size, 16*Mbps)
	if d < ideal {
		t.Fatalf("transfer faster than link rate: %v < %v", d, ideal)
	}
	if d > ideal*2 {
		t.Fatalf("transfer %v, more than 2x ideal %v", d, ideal)
	}
}

func TestInitialCwndAblation(t *testing.T) {
	profIW4 := DSL()
	profIW4.InitialCwnd = 4
	profIW32 := DSL()
	profIW32.InitialCwnd = 32
	d4 := transfer(t, profIW4, 60*1024)
	d10 := transfer(t, DSL(), 60*1024)
	d32 := transfer(t, profIW32, 60*1024)
	if !(d32 <= d10 && d10 <= d4) {
		t.Fatalf("larger IW should not be slower: IW4=%v IW10=%v IW32=%v", d4, d10, d32)
	}
	if d32 == d4 {
		t.Fatalf("IW should matter for 60KB: IW4=%v IW32=%v", d4, d32)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	s, n := newNet(t, DSL())
	gotUp, gotDown := 0, 0
	n.Dial(func(c *Conn) {
		c.ServerEnd().SetReceiver(func(b []byte) { gotUp += len(b) })
		c.ClientEnd().SetReceiver(func(b []byte) { gotDown += len(b) })
		c.ClientEnd().Write(make([]byte, 1000))
		c.ServerEnd().Write(make([]byte, 5000))
	})
	s.Run()
	if gotUp != 1000 || gotDown != 5000 {
		t.Fatalf("got up=%d down=%d, want 1000/5000", gotUp, gotDown)
	}
}

func TestUplinkSlowerThanDownlink(t *testing.T) {
	// Measured separately: a concurrent test would conflate the effect
	// with ACK starvation on the saturated uplink.
	size := 100 * 1024
	down := transfer(t, DSL(), size)

	s, n := newNet(t, DSL())
	var up, start time.Duration
	upGot := 0
	n.Dial(func(c *Conn) {
		start = s.Now()
		c.ServerEnd().SetReceiver(func(b []byte) {
			upGot += len(b)
			if upGot >= size {
				up = s.Now() - start
			}
		})
		c.ClientEnd().Write(make([]byte, size))
	})
	s.Run()
	if up <= down*2 {
		t.Fatalf("1 Mbit/s uplink (%v) should be much slower than 16 Mbit/s downlink (%v)", up, down)
	}
}

func TestSharedLinkContention(t *testing.T) {
	// Two connections sharing the downlink: each transfer takes longer
	// than it would alone.
	size := 512 * 1024
	alone := transfer(t, DSL(), size)

	s, n := newNet(t, DSL())
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		n.Dial(func(c *Conn) {
			start := s.Now()
			got := 0
			c.ClientEnd().SetReceiver(func(b []byte) {
				got += len(b)
				if got >= size {
					done[i] = s.Now() - start
				}
			})
			c.ServerEnd().Write(make([]byte, size))
		})
	}
	s.Run()
	for i, d := range done {
		if d == 0 {
			t.Fatalf("conn %d never finished", i)
		}
		if d < time.Duration(float64(alone)*1.5) {
			t.Fatalf("conn %d finished in %v, alone takes %v; no contention visible", i, d, alone)
		}
	}
}

func TestOrderedDelivery(t *testing.T) {
	s, n := newNet(t, DSL())
	var got []byte
	payload := make([]byte, 50000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	n.Dial(func(c *Conn) {
		c.ClientEnd().SetReceiver(func(b []byte) { got = append(got, b...) })
		// Write in odd-sized pieces to exercise segmentation.
		rest := payload
		for len(rest) > 0 {
			n := 1777
			if n > len(rest) {
				n = len(rest)
			}
			c.ServerEnd().Write(rest[:n])
			rest = rest[n:]
		}
	})
	s.Run()
	if len(got) != len(payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d corrupted: got %d want %d", i, got[i], payload[i])
		}
	}
}

func TestDrainCallback(t *testing.T) {
	s, n := newNet(t, DSL())
	drains := 0
	n.Dial(func(c *Conn) {
		se := c.ServerEnd()
		se.SetOnDrain(func() { drains++ })
		c.ClientEnd().SetReceiver(func([]byte) {})
		se.Write(make([]byte, 1000))
	})
	s.Run()
	if drains == 0 {
		t.Fatal("drain callback never fired")
	}
}

func TestLossRecovery(t *testing.T) {
	prof := DSL()
	prof.LossRate = 0.02
	s := sim.New(99)
	n := New(s, prof)
	size := 300 * 1024
	got := 0
	var rtx int64
	n.Dial(func(c *Conn) {
		c.ClientEnd().SetReceiver(func(b []byte) { got += len(b) })
		c.ServerEnd().Write(make([]byte, size))
		s.After(30*time.Second, func() { rtx = c.ServerEnd().Retransmits() })
	})
	s.Run()
	if got != size {
		t.Fatalf("lossy transfer incomplete: got %d want %d", got, size)
	}
	if rtx == 0 {
		t.Fatal("2% loss on 300KB should retransmit at least once")
	}
}

func TestWriteBeforeConnectDropped(t *testing.T) {
	s, n := newNet(t, DSL())
	got := 0
	c := n.Dial(func(c *Conn) {
		c.ClientEnd().SetReceiver(func(b []byte) { got += len(b) })
	})
	// A write before the handshake completes is dropped, not a panic:
	// peer-triggerable timing must surface as lost bytes, never crash.
	c.ServerEnd().Write([]byte("x"))
	s.Run()
	if got != 0 {
		t.Fatalf("received %d bytes written before connect", got)
	}
}

func TestCloseStopsWrites(t *testing.T) {
	s, n := newNet(t, DSL())
	got := 0
	n.Dial(func(c *Conn) {
		c.ClientEnd().SetReceiver(func(b []byte) { got += len(b) })
		c.close()
		c.ServerEnd().Write(make([]byte, 100))
	})
	s.Run()
	if got != 0 {
		t.Fatalf("received %d bytes after close", got)
	}
}

// Property: transfers are conservation-preserving — exactly the written
// byte count arrives, once, for arbitrary write patterns.
func TestPropertyByteConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		total := 0
		for _, sz := range sizes {
			total += int(sz % 8000)
		}
		if total == 0 {
			return true
		}
		s := sim.New(3)
		n := New(s, DSL())
		got := 0
		n.Dial(func(c *Conn) {
			c.ClientEnd().SetReceiver(func(b []byte) { got += len(b) })
			for _, sz := range sizes {
				if m := int(sz % 8000); m > 0 {
					c.ServerEnd().Write(make([]byte, m))
				}
			}
		})
		s.Run()
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTiming(t *testing.T) {
	d1 := transfer(t, DSL(), 123456)
	d2 := transfer(t, DSL(), 123456)
	if d1 != d2 {
		t.Fatalf("identical runs differ: %v vs %v", d1, d2)
	}
}

func TestProfileValidateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"negative overhead", func(p *Profile) { p.SegOverhead = -1 }},
		{"negative handshake", func(p *Profile) { p.HandshakeRTTs = -1 }},
		{"negative queue", func(p *Profile) { p.QueueBytes = -1 }},
		{"queue below one segment", func(p *Profile) { p.QueueBytes = 100 }},
	}
	for _, tc := range cases {
		p := DSL()
		tc.mutate(&p)
		if p.Validate() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Unlimited queue (0) stays valid regardless of MSS.
	p := DSL()
	p.QueueBytes = 0
	if err := p.Validate(); err != nil {
		t.Errorf("unlimited queue rejected: %v", err)
	}
}

func TestBufferedExcludesInflight(t *testing.T) {
	// End.Buffered reports bytes accepted by Write but not yet admitted
	// to the congestion window; in-flight bytes are counted apart. The
	// two partition everything not yet acked.
	s, n := newNet(t, DSL())
	total := 100 * 1024
	n.Dial(func(c *Conn) {
		c.ClientEnd().SetReceiver(func([]byte) {})
		se := c.ServerEnd()
		se.Write(make([]byte, total))
		wantInflight := 10 * 1460 // IW10 admits exactly 10 full segments
		if se.out.inflight != wantInflight {
			t.Fatalf("inflight = %d, want %d", se.out.inflight, wantInflight)
		}
		if se.Buffered() != total-wantInflight {
			t.Fatalf("Buffered = %d, want %d (excluding in-flight)", se.Buffered(), total-wantInflight)
		}
	})
	s.Run()
}

func TestWriteVMatchesSingleWrite(t *testing.T) {
	// WriteV pumps once for all chunks: segmentation, and therefore
	// delivery timing, is identical to one Write of the concatenation.
	run := func(split bool) time.Duration {
		s, n := newNet(t, DSL())
		var done, start time.Duration
		size := 50_000
		payload := make([]byte, size)
		received := 0
		n.Dial(func(c *Conn) {
			start = s.Now()
			c.ClientEnd().SetReceiver(func(b []byte) {
				received += len(b)
				if received >= size {
					done = s.Now()
				}
			})
			if split {
				c.ServerEnd().WriteV([][]byte{payload[:9], nil, payload[9:1700], payload[1700:]})
			} else {
				c.ServerEnd().Write(payload)
			}
		})
		s.Run()
		if received != size {
			t.Fatalf("received %d bytes, want %d", received, size)
		}
		return done - start
	}
	if single, vectored := run(false), run(true); single != vectored {
		t.Fatalf("WriteV timing %v differs from single Write %v", vectored, single)
	}
}

func TestCloseCancelsRetransmitTimers(t *testing.T) {
	prof := DSL()
	prof.LossRate = 0.999 // the first segment is (deterministically) lost
	s := sim.New(7)
	n := New(s, prof)
	var conn *Conn
	n.Dial(func(c *Conn) {
		conn = c
		c.ClientEnd().SetReceiver(func([]byte) {})
		c.ServerEnd().Write(make([]byte, 1000))
		if c.ServerEnd().Retransmits() == 0 {
			t.Fatal("expected the first segment to be lost")
		}
		before := s.Pending()
		c.close()
		if s.Pending() >= before {
			t.Fatalf("close left retransmit timers queued: pending %d -> %d", before, s.Pending())
		}
	})
	s.Run()
	// No event may arm a new retransmit timer after Close: the loss-heavy
	// profile would otherwise keep rescheduling RTOs indefinitely.
	if rtx := conn.ServerEnd().Retransmits(); rtx != 1 {
		t.Fatalf("retransmit timers armed after close: count %d, want 1", rtx)
	}
}

func TestSegmentStructsAreReleased(t *testing.T) {
	// Steady-state transfer recycles segment structs through the
	// network's free list instead of allocating one per segment.
	s, n := newNet(t, DSL())
	received := 0
	n.Dial(func(c *Conn) {
		c.ClientEnd().SetReceiver(func(b []byte) { received += len(b) })
		c.ServerEnd().Write(make([]byte, 512*1024))
	})
	s.Run()
	if received != 512*1024 {
		t.Fatalf("received %d", received)
	}
	if len(n.segFree) == 0 {
		t.Fatal("no segments returned to the free list")
	}
	// The pool peaks at the maximum number of concurrently in-flight
	// segments (the congestion window), which must stay below the total
	// segment count — otherwise no struct was ever reused.
	if segs := 512 * 1024 / 1460; len(n.segFree) >= segs {
		t.Fatalf("free list holds %d segments for a %d-segment transfer; pooling not effective", len(n.segFree), segs)
	}
}
