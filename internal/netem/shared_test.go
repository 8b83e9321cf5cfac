package netem

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// testShared returns a valid shared-bottleneck profile: fast fiber
// access links feeding a DSL-grade shared uplink, the household shape.
func testShared(clients int) SharedProfile {
	access := Profile{
		DownRate:      300 * Mbps,
		UpRate:        300 * Mbps,
		RTT:           4 * time.Millisecond,
		MSS:           1460,
		SegOverhead:   40,
		QueueBytes:    256 * 1024,
		InitialCwnd:   10,
		HandshakeRTTs: 2,
	}
	return SharedProfile{
		Access:     access,
		DownRate:   16 * Mbps,
		UpRate:     1 * Mbps,
		RTT:        46 * time.Millisecond,
		QueueBytes: 192 * 1024,
		Clients:    clients,
	}
}

func TestSharedProfileValidate(t *testing.T) {
	if err := testShared(4).Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*SharedProfile)
		want string
	}{
		{"bad access", func(p *SharedProfile) { p.Access.MSS = 0 }, "shared topology access link"},
		{"zero shared rate", func(p *SharedProfile) { p.UpRate = 0 }, "shared rates must be positive"},
		{"access slower than shared", func(p *SharedProfile) { p.Access.DownRate = 8 * Mbps }, "slower than the shared bottleneck"},
		{"negative shared RTT", func(p *SharedProfile) { p.RTT = -time.Second }, "negative shared RTT"},
		{"negative shared queue", func(p *SharedProfile) { p.QueueBytes = -1 }, "negative shared queue limit"},
		{"queue below one segment", func(p *SharedProfile) { p.QueueBytes = 100 }, "cannot hold one segment"},
		{"no clients", func(p *SharedProfile) { p.Clients = 0 }, "at least one client"},
		{"negative spread", func(p *SharedProfile) { p.ArrivalSpread = -time.Second }, "negative arrival spread"},
	}
	for _, tc := range cases {
		p := testShared(4)
		tc.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// topoTransfer loads size bytes server->client on each of the first
// clients networks of a fresh topology and returns each client's
// transfer time measured from its connectEnd.
func topoTransfer(t *testing.T, sp SharedProfile, size int) []time.Duration {
	t.Helper()
	s := sim.New(1)
	topo := NewTopology(s, sp)
	done := make([]time.Duration, sp.Clients)
	for i := 0; i < sp.Clients; i++ {
		i := i
		topo.Client(i).Dial(func(c *Conn) {
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
			t.Fatalf("client %d never finished", i)
		}
	}
	return done
}

// TestTopologySharedBottleneck: a single client through the topology is
// limited by the shared link, not its fast access link.
func TestTopologySharedBottleneck(t *testing.T) {
	size := 1024 * 1024
	d := topoTransfer(t, testShared(1), size)[0]
	ideal := txTime(size, 16*Mbps)
	if d < ideal {
		t.Fatalf("transfer %v beat the shared link rate (%v)", d, ideal)
	}
	fastIdeal := txTime(size, 300*Mbps)
	if d < 10*fastIdeal {
		t.Fatalf("transfer %v looks access-limited, not shared-limited", d)
	}
}

// TestTopologyContention: two clients sharing the bottleneck each see
// materially slower transfers than a client alone.
func TestTopologyContention(t *testing.T) {
	size := 512 * 1024
	alone := topoTransfer(t, testShared(1), size)[0]
	both := topoTransfer(t, testShared(2), size)
	for i, d := range both {
		if d < time.Duration(float64(alone)*3/2) {
			t.Fatalf("client %d finished in %v, alone takes %v; no contention at the shared queue", i, d, alone)
		}
	}
}

// TestTopologySharedStats: traffic shows up on the shared pipes.
func TestTopologySharedStats(t *testing.T) {
	s := sim.New(1)
	topo := NewTopology(s, testShared(1))
	got := 0
	topo.Client(0).Dial(func(c *Conn) {
		c.ClientEnd().SetReceiver(func(b []byte) { got += len(b) })
		c.ServerEnd().Write(make([]byte, 64*1024))
	})
	s.Run()
	if got != 64*1024 {
		t.Fatalf("received %d bytes", got)
	}
	// Each shared pipe's serializer ran: the payload crossed the shared
	// downlink at its rate, and ACKs crossed the shared uplink.
	if ideal := txTime(64*1024, 16*Mbps); topo.xDown.busyUntil < ideal {
		t.Fatalf("shared downlink busy until %v, want >= payload serialization %v", topo.xDown.busyUntil, ideal)
	}
	if topo.xUp.busyUntil == 0 {
		t.Fatal("no ACK bytes crossed the shared uplink")
	}
}

// TestTopologyResetDeterministic: Reset on a warmed topology reproduces
// a fresh topology's timing exactly, including when the client count
// shrinks and grows across resets (pooled surplus clients must not
// leak state into later runs).
func TestTopologyResetDeterministic(t *testing.T) {
	run := func(s *sim.Sim, topo *Topology, clients, size int) []time.Duration {
		sp := testShared(clients)
		if topo == nil {
			topo = NewTopology(s, sp)
		} else {
			topo.Reset(sp)
		}
		done := make([]time.Duration, clients)
		for i := 0; i < clients; i++ {
			i := i
			topo.Client(i).Dial(func(c *Conn) {
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
		return done
	}

	sA := sim.New(7)
	fresh := run(sA, nil, 3, 128*1024)

	sB := sim.New(7)
	topo := NewTopology(sB, testShared(4))
	_ = run(sB, topo, 4, 64*1024) // warm with a different shape
	sB.Reset(7)
	reused := run(sB, topo, 3, 128*1024)

	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("client %d: fresh %v != reused %v", i, fresh[i], reused[i])
		}
	}
}

// TestNetworkResetDetaches: a flat Reset detaches the shared pipes, so
// a Network recycled out of a topology behaves like a plain access
// link again.
func TestNetworkResetDetaches(t *testing.T) {
	s := sim.New(1)
	topo := NewTopology(s, testShared(1))
	n := topo.Client(0)
	if n.xDown == nil || n.xUp == nil {
		t.Fatal("topology client not attached to shared pipes")
	}
	n.Reset(DSL())
	if n.xDown != nil || n.xUp != nil {
		t.Fatal("flat Reset left shared pipes attached")
	}
}

func TestArrivalOffsets(t *testing.T) {
	sp := testShared(8)
	sp.ArrivalSpread = 500 * time.Millisecond
	a := sp.ArrivalOffsets(42, nil)
	b := sp.ArrivalOffsets(42, make([]time.Duration, 0, 8))
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	distinct := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs across calls with the same seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= sp.ArrivalSpread {
			t.Fatalf("offset %d = %v outside [0, %v)", i, a[i], sp.ArrivalSpread)
		}
		if a[i] != a[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all offsets identical; spread not applied")
	}
	c := sp.ArrivalOffsets(43, nil)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical offsets")
	}
	sp.ArrivalSpread = 0
	z := sp.ArrivalOffsets(42, a) // reuse
	for i, off := range z {
		if off != 0 {
			t.Fatalf("zero spread: offset %d = %v", i, off)
		}
	}
}
