package netem

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// SharedProfile describes a shared-bottleneck topology: N per-client
// access links (each a full Profile) feeding one FIFO queue per
// direction — a household behind one DSL uplink, the devices of a cell
// sector behind its backhaul, an office LAN behind its NAT uplink.
// The shared pipes serialize at DownRate/UpRate, add RTT/2 of
// propagation each way, and tail-drop data segments past QueueBytes;
// contention between clients happens in these queues.
type SharedProfile struct {
	// Access is the per-client access link. Its RTT is the access
	// segment only; each client's effective round trip is
	// Access.RTT + RTT.
	Access Profile
	// DownRate/UpRate are the shared bottleneck's serialization rates.
	// The access rates must be at least these — the shared link is the
	// bottleneck by construction, otherwise contention would be hidden
	// behind the access links and the topology would measure nothing.
	DownRate Rate
	UpRate   Rate
	// RTT is the round-trip propagation across the shared segment.
	RTT time.Duration
	// QueueBytes bounds each shared direction's FIFO queue.
	QueueBytes int
	// Clients is the number of access links feeding the bottleneck.
	Clients int
	// ArrivalSpread staggers client start times: per-client offsets are
	// drawn deterministically from [0, ArrivalSpread) by ArrivalOffsets.
	// Zero starts every client at once.
	ArrivalSpread time.Duration
}

// Validate reports whether the shared profile is internally
// consistent, mirroring Profile.Validate's queue-vs-MSS rule for the
// shared queue.
func (p SharedProfile) Validate() error {
	if err := p.Access.Validate(); err != nil {
		return fmt.Errorf("netem: shared topology access link: %w", err)
	}
	switch {
	case p.DownRate <= 0 || p.UpRate <= 0:
		return fmt.Errorf("netem: shared rates must be positive (down=%d up=%d)", p.DownRate, p.UpRate)
	case p.Access.DownRate < p.DownRate || p.Access.UpRate < p.UpRate:
		return fmt.Errorf("netem: access link (%d/%d) slower than the shared bottleneck (%d/%d): the shared link must be the bottleneck or contention is hidden on the access side",
			p.Access.DownRate, p.Access.UpRate, p.DownRate, p.UpRate)
	case p.RTT < 0:
		return fmt.Errorf("netem: negative shared RTT %v", p.RTT)
	case p.QueueBytes < 0:
		return fmt.Errorf("netem: negative shared queue limit %d", p.QueueBytes)
	case p.QueueBytes > 0 && p.QueueBytes < p.Access.MSS+p.Access.SegOverhead:
		return fmt.Errorf("netem: shared queue limit %d cannot hold one segment (MSS %d + overhead %d): every segment would tail-drop",
			p.QueueBytes, p.Access.MSS, p.Access.SegOverhead)
	case p.Clients <= 0:
		return fmt.Errorf("netem: shared topology needs at least one client, got %d", p.Clients)
	case p.ArrivalSpread < 0:
		return fmt.Errorf("netem: negative arrival spread %v", p.ArrivalSpread)
	}
	return nil
}

// clientProfile is the effective per-client profile: the access link
// with the shared segment's propagation folded into the RTT, so
// handshake timing and retransmit timers see the full path.
func (p SharedProfile) clientProfile() Profile {
	prof := p.Access
	prof.RTT = p.Access.RTT + p.RTT
	return prof
}

// ArrivalOffsets appends the per-client start offsets for one run to
// dst (reusing its capacity) and returns it. Offsets are drawn from a
// generator seeded only by the run seed, so a (seed, Clients,
// ArrivalSpread) triple always yields the same offsets regardless of
// worker or merge order.
func (p SharedProfile) ArrivalOffsets(seed int64, dst []time.Duration) []time.Duration {
	dst = dst[:0]
	rng := rand.New(rand.NewSource(seed ^ 0x0ff5e7))
	for i := 0; i < p.Clients; i++ {
		var off time.Duration
		if p.ArrivalSpread > 0 {
			off = time.Duration(rng.Int63n(int64(p.ArrivalSpread)))
		}
		dst = append(dst, off)
	}
	return dst
}

// Topology is N client Networks contending for one shared bottleneck
// on a single simulator: each client keeps its own access pipes (and
// its own congestion control, connections and segment pool), and every
// flow's segments additionally traverse the shared pipes, where the
// clients' traffic interleaves in FIFO order.
//
// Reset re-arms everything for a new run, growing or shrinking the
// client pool as the profile demands.
//
//repolint:pooled
type Topology struct {
	s      *sim.Sim //repolint:keep bound at NewTopology; the owning Sim is Reset in place
	Shared SharedProfile
	xDown  *pipe // shared downlink (servers -> clients)
	xUp    *pipe // shared uplink (clients -> servers)
	// clients is the pooled per-client Network set; the first
	// Shared.Clients entries are active and carry the shared pipes.
	clients []*Network
}

// NewTopology builds a shared-bottleneck topology on the given
// simulator. Like New it panics on an invalid profile; topologies are
// static configuration, not runtime input.
func NewTopology(s *sim.Sim, sp SharedProfile) *Topology {
	t := &Topology{
		s:     s,
		xDown: &pipe{s: s, lane: sim.NewLane(s)},
		xUp:   &pipe{s: s, lane: sim.NewLane(s)},
	}
	t.Reset(sp)
	return t
}

// Reset re-arms the topology for a new run under sp: shared pipes
// cleared, every active client Network reset against the effective
// per-client profile and re-attached to the shared pipes. The client
// pool grows on demand and surplus clients are left detached, so
// sweeping a population axis (1, 4, 16, ... clients) on one warmed
// Topology reallocates nothing after the high-water mark. The owning
// simulator must have been Reset (or be fresh). Panics on an invalid
// profile, like NewTopology.
func (t *Topology) Reset(sp SharedProfile) {
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	t.Shared = sp
	t.xDown.reset(sp.DownRate, sp.RTT/2, sp.QueueBytes)
	t.xUp.reset(sp.UpRate, sp.RTT/2, sp.QueueBytes)
	prof := sp.clientProfile()
	accessProp := sp.Access.RTT / 2
	for len(t.clients) < sp.Clients {
		t.clients = append(t.clients, newNetwork(t.s, prof, accessProp))
	}
	for i, c := range t.clients {
		if i >= sp.Clients {
			// Surplus pooled client: stale state is reset (and the shared
			// pipes attached) when a later profile activates it again.
			break
		}
		c.resetWith(prof, accessProp)
		c.xDown, c.xUp = t.xDown, t.xUp
	}
}

// Client returns the i-th client's Network (0 <= i < Shared.Clients).
// The returned Network is owned by the topology: it is valid until the
// next Reset, and its fault helpers (CutLink etc.) act on that
// client's access link only.
func (t *Topology) Client(i int) *Network { return t.clients[i] }

// SharedDownDelivered returns total bytes delivered through the shared
// downlink, for tests.
func (t *Topology) SharedDownDelivered() int64 { return t.xDown.delivered }

// SharedUpDelivered returns total bytes delivered through the shared
// uplink, for tests.
func (t *Topology) SharedUpDelivered() int64 { return t.xUp.delivered }

// SharedDrops returns tail-dropped segments at the shared queues in
// both directions.
func (t *Topology) SharedDrops() int64 { return t.xDown.dropped + t.xUp.dropped }
