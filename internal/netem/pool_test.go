package netem

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// These tests pin the connection pool's contract: a Network whose
// connection, segment and event pools are warm from an unrelated run is
// indistinguishable — byte stream, retransmits, drops, event count —
// from a fresh one, on exactly the paths that touch pooled control
// state: loss recovery, link cuts, Close with RTOs pending, and a
// topology whose client count shrinks and grows.

// lossyWiFi mirrors scenario.LossyWiFi's link (the scenario package
// imports this one, so the profile is restated here).
func lossyWiFi() Profile {
	return Profile{
		DownRate:      30 * Mbps,
		UpRate:        15 * Mbps,
		RTT:           30 * time.Millisecond,
		MSS:           1460,
		SegOverhead:   40,
		QueueBytes:    256 * 1024,
		InitialCwnd:   10,
		HandshakeRTTs: 2,
		LossRate:      0.02,
	}
}

// pattern returns n bytes that identify both the stream (tag) and the
// offset, so a misdelivered or reordered segment shows in the bytes.
func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i) ^ byte(i>>8)
	}
	return b
}

// observed is everything a run exposes that pooling must not change.
type observed struct {
	streams [][]byte // per connection: bytes the client received, then bytes the server received
	rtx     int64
	drops   int64
	events  int
	conns   []*Conn
}

func (o *observed) equal(t *testing.T, what string, want *observed) {
	t.Helper()
	if o.events != want.events || o.rtx != want.rtx || o.drops != want.drops {
		t.Fatalf("%s: events/retransmits/drops = %d/%d/%d, fresh network %d/%d/%d",
			what, o.events, o.rtx, o.drops, want.events, want.rtx, want.drops)
	}
	if len(o.streams) != len(want.streams) {
		t.Fatalf("%s: %d streams, fresh network %d", what, len(o.streams), len(want.streams))
	}
	for i := range want.streams {
		if !bytes.Equal(o.streams[i], want.streams[i]) {
			t.Fatalf("%s: stream %d differs from the fresh network's (%d vs %d bytes)",
				what, i, len(o.streams[i]), len(want.streams[i]))
		}
	}
}

// exchange dials conns connections on n; each sends down bytes to the
// client and up bytes to the server. during, when non-nil, is called
// right after dialing to script faults on the run.
func exchange(s *sim.Sim, n *Network, conns, down, up int, during func(o *observed)) *observed {
	o := &observed{streams: make([][]byte, 2*conns)}
	for i := 0; i < conns; i++ {
		i := i
		c := n.Dial(func(c *Conn) {
			c.ClientEnd().SetReceiver(func(b []byte) { o.streams[2*i] = append(o.streams[2*i], b...) })
			c.ServerEnd().SetReceiver(func(b []byte) { o.streams[2*i+1] = append(o.streams[2*i+1], b...) })
			c.ServerEnd().Write(pattern(byte(2*i), down))
			c.ClientEnd().Write(pattern(byte(2*i+1), up))
		})
		o.conns = append(o.conns, c)
	}
	if during != nil {
		during(o)
	}
	o.events = s.Run()
	for _, c := range o.conns {
		o.rtx += c.ClientEnd().Retransmits() + c.ServerEnd().Retransmits()
	}
	o.drops = n.Drops()
	return o
}

// warmNetwork returns a simulator and network whose pools are warm from
// a run of a different shape that was cut off mid-flight: segments in
// the air, RTOs armed, send buffers full, one connection closed.
func warmNetwork(t *testing.T, conns int) (*sim.Sim, *Network) {
	t.Helper()
	prof := lossyWiFi()
	prof.MSS, prof.LossRate = 1000, 0.2
	s := sim.New(99)
	n := New(s, prof)
	s.Horizon = 400 * time.Millisecond
	o := exchange(s, n, conns, 200_000, 50_000, func(o *observed) {
		s.AtCall(300*time.Millisecond, func(any) { o.conns[0].Close() }, nil)
	})
	armed := 0
	for _, b := range n.conns {
		armed += len(b.up.rtx) + len(b.down.rtx)
	}
	if armed == 0 || len(n.segLive) == 0 || s.Pending() == 0 {
		t.Fatalf("test premise: warm-up left %d RTOs, %d live segments, %d events; want all non-zero",
			armed, len(n.segLive), s.Pending())
	}
	if len(o.conns) != conns {
		t.Fatalf("warm-up dialed %d conns, want %d", len(o.conns), conns)
	}
	return s, n
}

func TestReusedNetworkMatchesFresh(t *testing.T) {
	const seed = 7
	cases := []struct {
		name   string
		prof   Profile
		conns  int
		during func(s *sim.Sim, n *Network, o *observed)
		check  func(t *testing.T, o *observed)
	}{
		{
			name: "wifi-lossy", prof: lossyWiFi(), conns: 3,
			check: func(t *testing.T, o *observed) {
				if o.rtx == 0 {
					t.Fatal("test premise: no retransmissions on the lossy link")
				}
			},
		},
		{
			name: "cut-resume", prof: DSL(), conns: 2,
			during: func(s *sim.Sim, n *Network, o *observed) {
				s.AtCall(150*time.Millisecond, func(any) { n.CutLink() }, nil)
				s.AtCall(900*time.Millisecond, func(any) { n.ResumeLink() }, nil)
			},
			check: func(t *testing.T, o *observed) {
				if o.drops == 0 || o.rtx == 0 {
					t.Fatalf("test premise: link cut caused %d drops, %d retransmits", o.drops, o.rtx)
				}
			},
		},
		{
			name: "close-with-rtos-pending", prof: func() Profile { p := lossyWiFi(); p.LossRate = 0.3; return p }(), conns: 3,
			during: func(s *sim.Sim, n *Network, o *observed) {
				s.AtCall(400*time.Millisecond, func(any) {
					c := o.conns[2]
					h := c.serverEnd.out
					if len(h.rtx) == 0 {
						panic("test premise: no RTO pending at Close")
					}
					before := s.Pending()
					c.Close()
					if len(h.rtx) != 0 || s.Pending() >= before {
						panic(fmt.Sprintf("Close left %d RTOs armed, pending %d -> %d", len(h.rtx), before, s.Pending()))
					}
				}, nil)
			},
			check: func(t *testing.T, o *observed) {
				got := o.streams[4]
				if len(got) == 0 || len(got) >= 120_000 || !bytes.Equal(got, pattern(4, 120_000)[:len(got)]) {
					t.Fatalf("test premise: closed connection delivered %d of 120000 bytes; want a proper prefix", len(got))
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(s *sim.Sim, n *Network) *observed {
				var during func(o *observed)
				if tc.during != nil {
					during = func(o *observed) { tc.during(s, n, o) }
				}
				return exchange(s, n, tc.conns, 120_000, 30_000, during)
			}
			sF := sim.New(seed)
			want := run(sF, New(sF, tc.prof))
			tc.check(t, want)
			if tc.name != "close-with-rtos-pending" {
				for i, st := range want.streams {
					if size := []int{120_000, 30_000}[i%2]; !bytes.Equal(st, pattern(byte(i), size)) {
						t.Fatalf("fresh network corrupted stream %d", i)
					}
				}
			}

			const pooled = 5
			s, n := warmNetwork(t, pooled)
			// Two runs back to back on the warm network: the second starts
			// from pools the first one (not the warm-up) left behind.
			for round := 0; round < 2; round++ {
				s.Reset(seed)
				n.Reset(tc.prof)
				if len(n.connFree) != pooled || len(n.segLive) != 0 {
					t.Fatalf("round %d: Reset left %d pooled bundles (want %d), %d live segments", round, len(n.connFree), pooled, len(n.segLive))
				}
				got := run(s, n)
				got.equal(t, fmt.Sprintf("round %d", round), want)
				// The run drew its connection structs from the pool.
				if owned := len(n.connFree) + len(n.conns); owned != pooled {
					t.Fatalf("round %d: network owns %d connection bundles after the run, want the %d it was warmed with", round, owned, pooled)
				}
			}
		})
	}
}

// TestTopologyResetShrinkGrowPooledConns walks one topology through
// 16 -> 4 -> 64 clients, two connections per client. Every phase must
// match a fresh topology of that size: surplus clients keep their
// pooled bundles detached, reactivated clients reuse them, new clients
// start cold.
func TestTopologyResetShrinkGrowPooledConns(t *testing.T) {
	type phase struct {
		done   []time.Duration
		events int
		drops  int64
		rtx    int64
	}
	run := func(s *sim.Sim, topo *Topology, clients int) phase {
		const perClient, size = 2, 48 * 1024
		ph := phase{done: make([]time.Duration, clients*perClient)}
		var ends []*End
		for i := 0; i < clients*perClient; i++ {
			i := i
			topo.Client(i / perClient).Dial(func(c *Conn) {
				got := 0
				c.ClientEnd().SetReceiver(func(b []byte) {
					got += len(b)
					if got == size {
						ph.done[i] = s.Now()
					}
				})
				ends = append(ends, c.ServerEnd())
				c.ServerEnd().Write(pattern(byte(i), size))
			})
		}
		ph.events = s.Run()
		for _, e := range ends {
			ph.rtx += e.Retransmits()
		}
		ph.drops = topo.SharedDrops()
		return ph
	}
	shape := func(clients int) SharedProfile {
		sp := testShared(clients)
		sp.QueueBytes = 32 * 1024 // shallow shared queue: drops and RTOs from 4 clients up
		return sp
	}

	s := sim.New(3)
	var topo *Topology
	for _, clients := range []int{16, 4, 64} {
		sF := sim.New(3)
		want := run(sF, NewTopology(sF, shape(clients)), clients)
		if clients >= 16 && (want.drops == 0 || want.rtx == 0) {
			t.Fatalf("test premise: %d clients caused %d shared drops, %d retransmits", clients, want.drops, want.rtx)
		}

		if topo == nil {
			topo = NewTopology(s, shape(clients))
		} else {
			s.Reset(3)
			topo.Reset(shape(clients))
		}
		got := run(s, topo, clients)
		if got.events != want.events || got.drops != want.drops || got.rtx != want.rtx {
			t.Fatalf("%d clients: events/drops/retransmits = %d/%d/%d on the reused topology, fresh %d/%d/%d",
				clients, got.events, got.drops, got.rtx, want.events, want.drops, want.rtx)
		}
		for i := range want.done {
			if want.done[i] == 0 {
				t.Fatalf("%d clients: fresh transfer %d never finished", clients, i)
			}
			if got.done[i] != want.done[i] {
				t.Fatalf("%d clients: transfer %d finished at %v on the reused topology, fresh %v", clients, i, got.done[i], want.done[i])
			}
		}
	}
	// Clients 4..15 sat out the middle phase; their two bundles each came
	// back from their own free lists in the last one.
	for i := 0; i < 16; i++ {
		if n := topo.Client(i); len(n.conns)+len(n.connFree) != 2 {
			t.Fatalf("client %d owns %d bundles after 16 -> 4 -> 64, want 2 (recycled, not reallocated)", i, len(n.conns)+len(n.connFree))
		}
	}
}
