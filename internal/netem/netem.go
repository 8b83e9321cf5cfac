// Package netem emulates the testbed network of the paper: a DSL access
// link (16 Mbit/s down, 1 Mbit/s up, 50 ms RTT by default, shaped with tc
// in the original) shared by every connection between the browser and the
// per-origin replay servers.
//
// The emulation is a discrete-event model on a sim.Sim virtual clock:
//
//   - Each direction of the access link is a FIFO pipe with a byte queue,
//     serialization delay (rate) and propagation delay (RTT/2).
//   - Connections are TCP-flavoured: a three-way handshake plus TLS round
//     trip, slow start from a configurable initial window, per-ACK window
//     growth, and ACK clocking through the reverse pipe. Loss can be
//     injected for ablations; the default is deterministic and loss-free.
//
// The model intentionally omits SACK, fast retransmit and delayed ACKs:
// the paper's effects (multi-RTT HTML transfers, bandwidth contention
// between push streams, idle network time) only require correct
// first-order transfer timing.
//
// # Zero-copy byte path
//
// The data plane is zero-copy end to end. Write and WriteV transfer
// ownership of the given slices to the transport: the bytes are queued,
// segmented and delivered as subslices of the writer's buffers, so the
// caller must not mutate them afterwards (for the testbed this holds
// trivially — frame headers come from an append-only arena and payloads
// are slices of immutable recorded response bodies). Receivers likewise
// get subslices of the writer's buffers and must copy anything they
// retain beyond the callback. Per-segment state lives in pooled segment
// structs and events are scheduled through sim.AtCall, so steady-state
// transfer allocates nothing per segment.
//
// # Allocation-free control path and handle lifetime
//
// The control path is pooled the same way. A segment carries its own
// retransmit timer (a sim.Timer armed with the static fireRtx callback)
// and its index in the sender's pending-RTO list, so arming, firing and
// cancelling an RTO allocate nothing and never scan. A connection is one
// connBundle — the Conn, both Ends and both sending directions in a
// single allocation, wired to each other once — drawn from a
// per-Network free list by Dial and returned to it by the Network's next
// Reset (a Topology's clients included), with its buffer capacity kept.
//
// The contract that buys this: a *Conn or *End is valid until its
// Network's next Reset, and not a moment longer — after Reset the struct
// may be handed out again as a different connection. Every holder in the
// testbed (h2.SimEndpoint, replay.Farm, browser.Loader) is reset in the
// same breath as the Network it dialed on, so none outlives its handle.
package netem

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Rate is a link speed in bits per second.
type Rate int64

// Common rates.
const (
	Kbps Rate = 1_000
	Mbps Rate = 1_000_000
)

// Profile describes the emulated access link and transport parameters.
type Profile struct {
	DownRate      Rate          // server -> client direction
	UpRate        Rate          // client -> server direction
	RTT           time.Duration // base round-trip time between client and any server
	MSS           int           // TCP maximum segment size in bytes
	SegOverhead   int           // per-segment header overhead counted against the link
	QueueBytes    int           // per-direction bottleneck queue limit
	InitialCwnd   int           // initial congestion window in segments
	HandshakeRTTs int           // round trips before a connection is usable (TCP+TLS)
	LossRate      float64       // probability a data segment is lost (0 = deterministic)
}

// DSL returns the paper's evaluation setting (Sec. 4.1): 50 ms RTT,
// 16 Mbit/s downlink and 1 Mbit/s uplink.
func DSL() Profile {
	return Profile{
		DownRate:      16 * Mbps,
		UpRate:        1 * Mbps,
		RTT:           50 * time.Millisecond,
		MSS:           1460,
		SegOverhead:   40,
		QueueBytes:    192 * 1024,
		InitialCwnd:   10,
		HandshakeRTTs: 2,
	}
}

// Validate reports whether the profile is internally consistent. It is
// called at testbed construction (and again defensively in New) so a
// nonsensical scenario profile fails fast with a clear error.
func (p Profile) Validate() error {
	switch {
	case p.DownRate <= 0 || p.UpRate <= 0:
		return fmt.Errorf("netem: rates must be positive (down=%d up=%d)", p.DownRate, p.UpRate)
	case p.RTT < 0:
		return fmt.Errorf("netem: negative RTT %v", p.RTT)
	case p.MSS <= 0:
		return fmt.Errorf("netem: MSS must be positive, got %d", p.MSS)
	case p.SegOverhead < 0:
		return fmt.Errorf("netem: negative segment overhead %d", p.SegOverhead)
	case p.QueueBytes < 0:
		return fmt.Errorf("netem: negative queue limit %d", p.QueueBytes)
	case p.QueueBytes > 0 && p.QueueBytes < p.MSS+p.SegOverhead:
		return fmt.Errorf("netem: queue limit %d cannot hold one segment (MSS %d + overhead %d): every segment would tail-drop",
			p.QueueBytes, p.MSS, p.SegOverhead)
	case p.InitialCwnd <= 0:
		return fmt.Errorf("netem: initial cwnd must be positive, got %d", p.InitialCwnd)
	case p.HandshakeRTTs < 0:
		return fmt.Errorf("netem: negative handshake RTTs %d", p.HandshakeRTTs)
	case p.LossRate < 0 || p.LossRate >= 1:
		return fmt.Errorf("netem: loss rate %v out of [0,1)", p.LossRate)
	}
	return nil
}

// txTime returns the serialization delay for size bytes at rate r.
func txTime(size int, r Rate) time.Duration {
	return time.Duration(int64(size) * 8 * int64(time.Second) / int64(r))
}

// pendingRelease records bytes that leave the bottleneck queue when their
// serialization completes. The seq field is the sequence number a
// dedicated release event would have carried; applying releases lazily
// against (time, CurrentSeq) keeps queue occupancy, and therefore every
// tail-drop decision, bit-identical to the event-per-release model while
// scheduling only one real event (the delivery) per segment.
type pendingRelease struct {
	at   time.Duration
	seq  uint64
	size int
}

// pipe is one direction of the shared access link: a FIFO queue serving at
// a fixed rate followed by fixed propagation delay.
//
//repolint:pooled
type pipe struct {
	s         *sim.Sim  //repolint:keep bound at New; the owning Sim is Reset in place
	lane      *sim.Lane // FIFO delivery lane: admissions depart in order, so deliveries are monotone
	rate      Rate
	prop      time.Duration
	limit     int
	cut       bool // fault injection: a cut pipe tail-drops every non-forced admission
	busyUntil time.Duration
	queued    int

	pending []pendingRelease
	phead   int

	// stats
	delivered int64
	dropped   int64
}

// admit enqueues size bytes for transmission and returns the virtual time
// the last byte arrives at the far end; the caller schedules delivery.
// It reports false (a tail drop) when the queue limit would be exceeded.
// force bypasses the queue limit: ACKs are never dropped, because the
// model has no ACK-loss recovery (real TCP tolerates ACK loss through
// cumulative ACKs, which a unidirectional event model cannot reproduce
// faithfully).
//
//repolint:hotpath
func (p *pipe) admit(size int, force bool) (time.Duration, bool) {
	p.releaseExpired()
	if !force && (p.cut || (p.limit > 0 && p.queued+size > p.limit)) {
		p.dropped++
		return 0, false
	}
	now := p.s.Now()
	start := p.busyUntil
	if start < now {
		start = now
	}
	done := start + txTime(size, p.rate)
	p.busyUntil = done
	p.queued += size
	p.pending = append(p.pending, pendingRelease{at: done, seq: p.s.ReserveSeq(), size: size})
	return done + p.prop, true
}

// releaseExpired applies queue releases whose (virtual) event would have
// fired before the event currently executing. Releases are FIFO: admission
// times are monotone per pipe, so a single head index suffices.
//
//repolint:hotpath
func (p *pipe) releaseExpired() {
	now, cur := p.s.Now(), p.s.CurrentSeq()
	for p.phead < len(p.pending) {
		r := p.pending[p.phead]
		if r.at > now || (r.at == now && r.seq > cur) {
			break
		}
		p.queued -= r.size
		p.phead++
	}
	switch {
	case p.phead == len(p.pending):
		p.pending = p.pending[:0]
		p.phead = 0
	case p.phead > 64 && 2*p.phead >= len(p.pending):
		n := copy(p.pending, p.pending[p.phead:])
		p.pending = p.pending[:n]
		p.phead = 0
	}
}

// Network is the emulated access network shared by all connections of one
// page load: one downlink pipe, one uplink pipe.
//
//repolint:pooled
type Network struct {
	Sim  *sim.Sim //repolint:keep bound at New; the owning Sim is Reset in place
	Prof Profile
	down *pipe
	up   *pipe

	// xDown/xUp are the shared bottleneck pipes of an owning Topology;
	// when attached, every connection cascades its segments through the
	// shared hop after (down: before) the access pipes. nil on a flat
	// network. Reset detaches them; Topology.Reset re-attaches after
	// resetting each client, so they carry no per-run state of their own.
	xDown *pipe //repolint:keep attached by the owning Topology after Reset; nil on a flat network
	xUp   *pipe //repolint:keep attached by the owning Topology after Reset; nil on a flat network

	nextConnID int
	segFree    []*segment    //repolint:keep recycled segment free list; putSeg scrubs entries
	connFree   []*connBundle //repolint:keep recycled connection free list; resetWith scrubs entries

	// Live-object registries: every connection dialed this run, and
	// every segment currently outside the free list. Reset walks them to
	// recycle both.
	conns   []*connBundle
	segLive []*segment
}

// New builds a Network on the given simulator. It panics on an invalid
// profile; profiles are static configuration, not runtime input.
func New(s *sim.Sim, prof Profile) *Network {
	return newNetwork(s, prof, prof.RTT/2)
}

// newNetwork is New with the per-pipe propagation delay decoupled from
// the profile RTT: a Topology client's Prof.RTT is the *effective*
// round trip (access + shared segment, so handshake timing and RTOs
// are correct) while its access pipes carry only the access
// propagation — the shared pipes contribute the rest.
func newNetwork(s *sim.Sim, prof Profile, prop time.Duration) *Network {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	return &Network{
		Sim:  s,
		Prof: prof,
		down: &pipe{s: s, lane: sim.NewLane(s), rate: prof.DownRate, prop: prop, limit: prof.QueueBytes},
		up:   &pipe{s: s, lane: sim.NewLane(s), rate: prof.UpRate, prop: prop, limit: prof.QueueBytes},
	}
}

// Reset re-arms the network for a new run under prof, reusing the pipe
// release queues and the segment and connection free lists so a warmed
// Network starts a run without reallocating its transport state. Every
// *Conn and *End the network handed out becomes invalid here (see the
// package comment). The owning simulator must have been Reset (or be
// fresh) — pipe bookkeeping is relative to its clock. Panics on an
// invalid profile, like New.
func (n *Network) Reset(prof Profile) {
	n.resetWith(prof, prof.RTT/2)
}

// resetWith is Reset with the propagation split of newNetwork. It
// detaches any shared pipes: a Network leaves Reset flat, and only its
// owning Topology (which resets the shared hop itself) re-attaches
// them.
func (n *Network) resetWith(prof Profile, prop time.Duration) {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	n.Prof = prof
	n.nextConnID = 0
	n.down.reset(prof.DownRate, prop, prof.QueueBytes)
	n.up.reset(prof.UpRate, prop, prof.QueueBytes)
	n.xDown, n.xUp = nil, nil
	// Recycle this run's connections; their timers died with the Sim's
	// Reset and their segments are reclaimed below.
	for i, b := range n.conns {
		n.conns[i] = nil
		b.reset()
		n.connFree = append(n.connFree, b)
	}
	n.conns = n.conns[:0]
	// Reclaim segments still in flight when the previous run ended.
	for i, seg := range n.segLive {
		n.segLive[i] = nil
		scrubSeg(seg)
		n.segFree = append(n.segFree, seg)
	}
	n.segLive = n.segLive[:0]
}

// reset clears one direction's queue/stat state for a new run.
func (p *pipe) reset(rate Rate, prop time.Duration, limit int) {
	p.rate, p.prop, p.limit = rate, prop, limit
	p.cut = false
	p.busyUntil, p.queued = 0, 0
	p.pending, p.phead = p.pending[:0], 0
	p.delivered, p.dropped = 0, 0
	p.lane.Reset()
}

// Cut marks the pipe down. While cut, every non-forced admission
// tail-drops, so senders recover through the normal retransmit path once
// Resume re-opens the link. Forced admissions (ACKs) still pass — the
// model has no ACK-loss recovery (see admit), so a cut link starves data
// segments but never strands the ACK clock.
func (p *pipe) Cut() { p.cut = true }

// Resume re-opens a cut pipe.
func (p *pipe) Resume() { p.cut = false }

// Stall pushes the pipe's serializer busy horizon forward by d: every
// admission from now on serializes only after the stall window ends.
// Segments whose delivery was already scheduled are unaffected (they
// were on the wire). Nothing is dropped; the stall adds queueing delay.
func (p *pipe) Stall(d time.Duration) {
	if now := p.s.Now(); p.busyUntil < now {
		p.busyUntil = now
	}
	p.busyUntil += d
}

// CutLink cuts both directions of the access link (fault injection).
func (n *Network) CutLink() {
	n.down.Cut()
	n.up.Cut()
}

// ResumeLink re-opens both directions of a cut access link.
func (n *Network) ResumeLink() {
	n.down.Resume()
	n.up.Resume()
}

// StallLink freezes both directions' serializers for d without dropping
// anything (fault injection: a link-layer outage shorter than the
// retransmit timers would notice).
func (n *Network) StallLink(d time.Duration) {
	n.down.Stall(d)
	n.up.Stall(d)
}

// LinkDown reports whether the link is currently cut.
func (n *Network) LinkDown() bool { return n.down.cut || n.up.cut }

// DownlinkDelivered returns total bytes delivered client-ward, for tests.
func (n *Network) DownlinkDelivered() int64 { return n.down.delivered }

// UplinkDelivered returns total bytes delivered server-ward, for tests.
func (n *Network) UplinkDelivered() int64 { return n.up.delivered }

// Drops returns the number of tail-dropped segments in both directions.
func (n *Network) Drops() int64 { return n.down.dropped + n.up.dropped }

func (n *Network) getSeg() *segment {
	var seg *segment
	if m := len(n.segFree); m > 0 {
		seg = n.segFree[m-1]
		n.segFree[m-1] = nil
		n.segFree = n.segFree[:m-1]
	} else {
		seg = &segment{}
	}
	seg.liveIdx = len(n.segLive)
	n.segLive = append(n.segLive, seg)
	return seg
}

// scrubSeg clears a segment's payload references so a pooled struct pins
// nothing for the garbage collector.
func scrubSeg(seg *segment) {
	for i := range seg.parts {
		seg.parts[i] = nil
	}
	*seg = segment{parts: seg.parts[:0], liveIdx: -1}
}

func (n *Network) putSeg(seg *segment) {
	// Swap-remove from the live registry.
	i, last := seg.liveIdx, len(n.segLive)-1
	n.segLive[i] = n.segLive[last]
	n.segLive[i].liveIdx = i
	n.segLive[last] = nil
	n.segLive = n.segLive[:last]
	scrubSeg(seg)
	n.segFree = append(n.segFree, seg)
}

// Conn is an emulated TCP+TLS connection between the client and one
// origin server. Both ends exchange ordered byte streams. A *Conn (and
// its Ends) is valid until the owning Network's next Reset.
type Conn struct {
	net *Network
	ID  int

	clientEnd *End // used by the browser (sends via uplink)
	serverEnd *End // used by the origin server (sends via downlink)

	onConnect   func(*Conn) // pending handshake continuation; nil once established
	established bool
	connectEnd  time.Duration
	closed      bool
}

// connBundle is everything one connection needs, in one allocation: the
// Conn, its two Ends and its two sending directions. The pointers
// between the five parts are wired once (newConnBundle) and survive
// every recycle; Dial fills in the per-connection parameters and the
// Network's next Reset scrubs the run state and returns the bundle to
// the free list with its chunk/reorder/RTO slice capacity kept.
//
//repolint:pooled
type connBundle struct {
	Conn
	cEnd, sEnd End
	up, down   halfConn // cEnd.out (client -> server), sEnd.out (server -> client)
}

func newConnBundle(n *Network) *connBundle {
	b := &connBundle{}
	b.up = halfConn{s: n.Sim, net: n, peer: &b.sEnd}
	b.down = halfConn{s: n.Sim, net: n, peer: &b.cEnd}
	b.reset()
	return b
}

// reset scrubs the bundle's run state so a pooled struct pins no
// callbacks or payload bytes, re-deriving the intra-bundle wiring.
func (b *connBundle) reset() {
	b.Conn = Conn{net: b.up.net, clientEnd: &b.cEnd, serverEnd: &b.sEnd}
	b.cEnd = End{conn: &b.Conn, out: &b.up}
	b.sEnd = End{conn: &b.Conn, out: &b.down}
	b.up.reset()
	b.down.reset()
}

func (n *Network) getBundle() *connBundle {
	if m := len(n.connFree); m > 0 {
		b := n.connFree[m-1]
		n.connFree[m-1] = nil
		n.connFree = n.connFree[:m-1]
		return b
	}
	return newConnBundle(n)
}

// End is one endpoint of a Conn. Writers observe backpressure through
// Buffered and the drain callback; readers receive ordered byte slices.
type End struct {
	conn    *Conn
	out     *halfConn // sender state for this end's outgoing direction
	recv    func([]byte)
	onClose func()
	onError func(error)
}

// segment is one MSS-sized (or smaller) unit in flight. Its payload is a
// list of zero-copy subslices of writer-provided chunks (usually one,
// two when the segment straddles a chunk boundary). The same struct
// carries the delivery event and then the ACK event, and is returned to
// the network's free list once both delivery and ACK have completed.
type segment struct {
	h       *halfConn
	seq     int64
	size    int
	attempt int
	parts   [][]byte
	liveIdx int // index in Network.segLive while live; -1 when free

	// The segment carries its own retransmit timer: rtx is the armed RTO
	// (the zero Timer when none) and rtxIdx its slot in h.rtx, so firing
	// and cancelling are O(1) and allocation-free.
	rtx    sim.Timer
	rtxIdx int

	delivered bool // payload handed to the receiver (or dropped as a dup)
	ackDone   bool // ACK event fired
}

// halfConn models one sending direction: congestion control plus the
// shared pipe in that direction. Segments carry byte sequence numbers and
// the receiver reassembles in order, so a retransmitted segment (after a
// tail drop or injected loss) cannot corrupt the delivered byte stream.
//
// The send buffer is a chunked FIFO of writer-provided slices; pump
// carves MSS-sized segments out of it as zero-copy subslices.
//
//repolint:pooled
type halfConn struct {
	s       *sim.Sim //repolint:keep wired once by newConnBundle; the owning Sim is Reset in place
	net     *Network //repolint:keep wired once by newConnBundle; a bundle never changes Network
	peer    *End     //repolint:keep wired once by newConnBundle: the receiving End of this direction
	pipe    *pipe    // data direction, first hop
	ackPipe *pipe    // reverse direction for ACKs, first hop
	// pipe2/ackPipe2, when non-nil, cascade each segment (and each ACK)
	// through a second hop — the shared bottleneck of a Topology. nil
	// (every flat Network) keeps the single-hop behaviour bit-identical.
	pipe2    *pipe
	ackPipe2 *pipe
	mss      int
	overhead int
	lossRate float64

	cwnd     float64 // segments
	ssthresh float64
	inflight int // un-acked bytes

	chunks   [][]byte // writer-provided slices, chunks[head][off:] is next unsent
	head     int
	off      int
	buffered int // total unsent bytes across chunks

	onDrain func()
	closed  bool

	nextSeq   int64      // next byte sequence to assign
	expectSeq int64      // receiver: next in-order byte expected
	ooo       []*segment // receiver: out-of-order segments, sorted by seq

	rtx []*segment // segments with an RTO armed (seg.rtx), cancelled on close

	sent     int64
	acked    int64
	rtxCount int64
	rtt      time.Duration
}

// reset scrubs the direction for the free list: payload references
// dropped, slice capacity kept, only the once-wired pointers survive.
func (h *halfConn) reset() {
	clear(h.chunks)
	clear(h.ooo)
	clear(h.rtx)
	*h = halfConn{
		s: h.s, net: h.net, peer: h.peer,
		chunks: h.chunks[:0], ooo: h.ooo[:0], rtx: h.rtx[:0],
	}
}

// open arms a scrubbed direction for a new connection under prof over
// the given data and ACK pipes (second hops nil on a flat network).
func (h *halfConn) open(prof *Profile, dataPipe, dataPipe2, ackPipe, ackPipe2 *pipe) {
	h.pipe, h.pipe2, h.ackPipe, h.ackPipe2 = dataPipe, dataPipe2, ackPipe, ackPipe2
	h.mss, h.overhead, h.lossRate = prof.MSS, prof.SegOverhead, prof.LossRate
	h.cwnd = float64(prof.InitialCwnd)
	h.ssthresh = 1 << 20
	h.rtt = prof.RTT
}

// enqueue appends a writer-owned chunk to the send buffer. Ownership of
// b transfers to the transport here (the package's zero-copy contract):
// pump carves segments out of it and receivers see subslices of it.
//
//repolint:owns
//repolint:hotpath
func (h *halfConn) enqueue(b []byte) {
	h.chunks = append(h.chunks, b)
	h.buffered += len(b)
}

func (h *halfConn) write(b []byte) {
	h.enqueue(b)
	h.pump()
}

func (h *halfConn) writev(bs [][]byte) {
	for _, b := range bs {
		if len(b) > 0 {
			h.enqueue(b)
		}
	}
	h.pump()
}

// pump admits as many segments as the congestion window allows, carving
// zero-copy subslices off the chunk queue. A closed connection admits
// nothing more: in-flight segments drain, buffered bytes are abandoned.
//
//repolint:hotpath
func (h *halfConn) pump() {
	for !h.closed && h.buffered > 0 && h.inflight < int(h.cwnd*float64(h.mss)) {
		n := h.mss
		if n > h.buffered {
			n = h.buffered
		}
		seg := h.net.getSeg()
		seg.h = h
		seg.seq = h.nextSeq
		seg.size = n
		seg.attempt = 1
		remain := n
		for remain > 0 {
			c := h.chunks[h.head]
			take := len(c) - h.off
			if take > remain {
				take = remain
			}
			seg.parts = append(seg.parts, c[h.off:h.off+take:h.off+take])
			h.off += take
			remain -= take
			if h.off == len(c) {
				h.chunks[h.head] = nil
				h.head++
				h.off = 0
			}
		}
		switch {
		case h.head == len(h.chunks):
			h.chunks = h.chunks[:0]
			h.head = 0
		case h.head > 64 && 2*h.head >= len(h.chunks):
			m := copy(h.chunks, h.chunks[h.head:])
			for i := m; i < len(h.chunks); i++ {
				h.chunks[i] = nil
			}
			h.chunks = h.chunks[:m]
			h.head = 0
		}
		h.buffered -= n
		h.inflight += n
		h.nextSeq += int64(n)
		h.sendSegment(seg)
	}
	h.maybeDrain()
}

//repolint:hotpath
func (h *halfConn) maybeDrain() {
	if h.onDrain != nil && h.buffered == 0 {
		// Drain fires when the application buffer is empty: all pending
		// bytes have been admitted into the congestion window. Small write
		// buffers give the HTTP/2 scheduler frame-granular control over
		// what is sent next (as in h2o).
		h.s.AtCall(h.s.Now(), callFunc, h.onDrain)
	}
}

// callFunc invokes a func() passed as the event argument; it lets Post-like
// notifications ride the pooled event path without a per-event closure.
//
//repolint:hotpath
func callFunc(arg any) { arg.(func())() }

func (h *halfConn) sendSegment(seg *segment) {
	h.sent += int64(seg.size)
	lost := h.lossRate > 0 && h.s.Rand().Float64() < h.lossRate
	if !lost {
		if at, ok := h.pipe.admit(seg.size+h.overhead, false); ok {
			// Admission times are nondecreasing per pipe (a link is a FIFO
			// queue), so deliveries ride the pipe's lane instead of each
			// taking a heap slot.
			if h.pipe2 != nil {
				h.pipe.lane.AtCall(at, hopSegment, seg)
			} else {
				h.pipe.lane.AtCall(at, deliverSegment, seg)
			}
			return
		}
	}
	h.scheduleRtx(seg)
}

// scheduleRtx arms the retransmit path after a loss or tail drop:
// retransmit after an RTO and fall back to slow start from half the
// window. After Close no new timer may be armed (Close cancelled the
// existing ones); the segment is abandoned like the rest of the send
// buffer. A retransmission re-traverses the full path from the first
// hop — the drop consumed the segment wherever it happened.
//
//repolint:hotpath
func (h *halfConn) scheduleRtx(seg *segment) {
	if h.closed {
		return
	}
	h.rtxCount++
	h.ssthresh = h.cwnd / 2
	if h.ssthresh < 2 {
		h.ssthresh = 2
	}
	h.cwnd = float64(min(int(h.cwnd), 4))
	rto := 2 * h.rtt
	if rto < 100*time.Millisecond {
		rto = 100 * time.Millisecond
	}
	attempt := seg.attempt
	seg.attempt++
	seg.rtxIdx = len(h.rtx)
	h.rtx = append(h.rtx, seg)
	seg.rtx = h.s.AtTimer(h.s.Now()+rto*time.Duration(attempt), fireRtx, seg)
}

// fireRtx is the (pooled) RTO expiry: the segment leaves the pending
// list and re-enters the path at the first hop.
//
//repolint:hotpath
func fireRtx(arg any) {
	seg := arg.(*segment)
	h := seg.h
	h.dropRtx(seg)
	h.sendSegment(seg)
}

// dropRtx swap-removes seg from the pending-RTO list.
//
//repolint:hotpath
func (h *halfConn) dropRtx(seg *segment) {
	i, last := seg.rtxIdx, len(h.rtx)-1
	moved := h.rtx[last]
	h.rtx[i] = moved
	moved.rtxIdx = i
	h.rtx[last] = nil
	h.rtx = h.rtx[:last]
	seg.rtx = sim.Timer{}
}

// closeHalf stops this direction's retransmit timers; in-flight segments
// still drain so the model's conservation properties hold.
func (h *halfConn) closeHalf() {
	h.closed = true
	for i, seg := range h.rtx {
		seg.rtx.Cancel()
		seg.rtx = sim.Timer{}
		h.rtx[i] = nil
	}
	h.rtx = h.rtx[:0]
}

// deliverSegment is the (pooled) delivery event for a data segment on
// a flat (single-hop) network.
//
//repolint:hotpath
func deliverSegment(arg any) {
	seg := arg.(*segment)
	h := seg.h
	h.pipe.delivered += int64(seg.size + h.overhead)
	h.onSegmentArrive(seg)
}

// hopSegment is the first-hop arrival on a cascaded path: the segment
// leaves the access pipe and contends for the shared bottleneck. A
// tail drop here is a real drop — the sender retransmits from hop one.
//
//repolint:hotpath
func hopSegment(arg any) {
	seg := arg.(*segment)
	h := seg.h
	h.pipe.delivered += int64(seg.size + h.overhead)
	if at, ok := h.pipe2.admit(seg.size+h.overhead, false); ok {
		// Events fire in global time order and admit times are
		// nondecreasing per pipe, so the shared lane's FIFO invariant
		// holds even with many clients' hops interleaving.
		h.pipe2.lane.AtCall(at, deliverSegment2, seg)
		return
	}
	h.scheduleRtx(seg)
}

// deliverSegment2 is the second-hop (shared-bottleneck) delivery.
//
//repolint:hotpath
func deliverSegment2(arg any) {
	seg := arg.(*segment)
	h := seg.h
	h.pipe2.delivered += int64(seg.size + h.overhead)
	h.onSegmentArrive(seg)
}

// onSegmentArrive reassembles the in-order byte stream at the receiver.
//
//repolint:hotpath
func (h *halfConn) onSegmentArrive(seg *segment) {
	switch {
	case seg.seq == h.expectSeq:
		h.expectSeq += int64(seg.size)
		h.deliver(seg)
		// Flush any buffered continuation.
		for len(h.ooo) > 0 && h.ooo[0].seq == h.expectSeq {
			next := h.ooo[0]
			copy(h.ooo, h.ooo[1:])
			h.ooo[len(h.ooo)-1] = nil
			h.ooo = h.ooo[:len(h.ooo)-1]
			h.expectSeq += int64(next.size)
			h.deliver(next)
		}
	case seg.seq > h.expectSeq:
		// Insert sorted; the list is tiny (loss is rare and windows small).
		i := len(h.ooo)
		for i > 0 && h.ooo[i-1].seq > seg.seq {
			i--
		}
		h.ooo = append(h.ooo, nil)
		copy(h.ooo[i+1:], h.ooo[i:])
		h.ooo[i] = seg
	default:
		// Duplicate (spurious retransmit): drop the payload, still ACK.
		seg.delivered = true
		h.maybeFree(seg)
	}
	// ACK back through the reverse pipe. ACKs are never lost in the model
	// (cumulative-ACK robustness is not modelled; see pipe.admit).
	at, _ := h.ackPipe.admit(h.overhead, true)
	if h.ackPipe2 != nil {
		h.ackPipe.lane.AtCall(at, hopAck, seg)
	} else {
		h.ackPipe.lane.AtCall(at, deliverAck, seg)
	}
}

//repolint:hotpath
func (h *halfConn) deliver(seg *segment) {
	if recv := h.peer.recv; recv != nil {
		for _, part := range seg.parts {
			recv(part)
		}
	}
	seg.delivered = true
	h.maybeFree(seg)
}

// deliverAck is the (pooled) ACK event on a flat network; it reuses
// the segment struct that carried the delivery.
//
//repolint:hotpath
func deliverAck(arg any) {
	seg := arg.(*segment)
	h := seg.h
	h.ackPipe.delivered += int64(h.overhead)
	h.finishAck(seg)
}

// hopAck forwards an ACK across the second reverse hop. ACKs are
// force-admitted on both hops (see pipe.admit): the model has no
// ACK-loss recovery, so the shared queue never strands the ACK clock.
//
//repolint:hotpath
func hopAck(arg any) {
	seg := arg.(*segment)
	h := seg.h
	h.ackPipe.delivered += int64(h.overhead)
	at, _ := h.ackPipe2.admit(h.overhead, true)
	h.ackPipe2.lane.AtCall(at, deliverAck2, seg)
}

// deliverAck2 completes a cascaded ACK at the sender.
//
//repolint:hotpath
func deliverAck2(arg any) {
	seg := arg.(*segment)
	h := seg.h
	h.ackPipe2.delivered += int64(h.overhead)
	h.finishAck(seg)
}

// finishAck is the shared ACK tail: account the segment, recycle it if
// delivery already happened, and grow the window.
//
//repolint:hotpath
func (h *halfConn) finishAck(seg *segment) {
	n := seg.size
	seg.ackDone = true
	h.maybeFree(seg)
	h.onAck(n)
}

//repolint:hotpath
func (h *halfConn) maybeFree(seg *segment) {
	if seg.delivered && seg.ackDone {
		h.net.putSeg(seg)
	}
}

//repolint:hotpath
func (h *halfConn) onAck(n int) {
	h.acked += int64(n)
	h.inflight -= n
	if h.inflight < 0 {
		h.inflight = 0
	}
	if h.cwnd < h.ssthresh {
		h.cwnd++ // slow start: one segment per ACK
	} else {
		h.cwnd += 1 / h.cwnd // congestion avoidance
	}
	h.pump()
}

// Dial opens a connection. onConnect runs at connectEnd (after the
// handshake round trips), matching the paper's PLT origin (W3C
// connectEnd). The returned Conn is not usable before onConnect, and is
// valid until the Network's next Reset.
func (n *Network) Dial(onConnect func(*Conn)) *Conn {
	n.nextConnID++
	b := n.getBundle()
	n.conns = append(n.conns, b)
	c := &b.Conn
	c.ID = n.nextConnID
	c.onConnect = onConnect
	prof := &n.Prof
	if n.xUp != nil {
		// Cascaded topology: client data crosses its access uplink then
		// the shared uplink; server data crosses the shared downlink then
		// the client's access downlink. ACKs retrace the reverse path.
		b.up.open(prof, n.up, n.xUp, n.xDown, n.down)   // client -> server
		b.down.open(prof, n.xDown, n.down, n.up, n.xUp) // server -> client
	} else {
		b.up.open(prof, n.up, nil, n.down, nil)   // client -> server
		b.down.open(prof, n.down, nil, n.up, nil) // server -> client
	}
	hs := time.Duration(prof.HandshakeRTTs) * prof.RTT
	n.Sim.AtCall(n.Sim.Now()+hs, connEstablished, c)
	return c
}

// connEstablished is the (pooled) handshake-complete event.
//
//repolint:hotpath
func connEstablished(arg any) {
	c := arg.(*Conn)
	c.established = true
	c.connectEnd = c.net.Sim.Now()
	onConnect := c.onConnect
	c.onConnect = nil
	onConnect(c)
}

// ConnectEnd returns the virtual time the handshake completed.
func (c *Conn) ConnectEnd() time.Duration { return c.connectEnd }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.established }

// ClientEnd returns the browser-side endpoint.
func (c *Conn) ClientEnd() *End { return c.clientEnd }

// ServerEnd returns the origin-side endpoint.
func (c *Conn) ServerEnd() *End { return c.serverEnd }

// Close tears the connection down; further writes are dropped and any
// pending retransmit timers are cancelled (removed from the event queue).
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.teardown()
	if c.clientEnd.onClose != nil {
		c.clientEnd.onClose()
	}
	if c.serverEnd.onClose != nil {
		c.serverEnd.onClose()
	}
}

// Abort tears the connection down like Close and additionally surfaces
// err to both ends' error callbacks (before the close callbacks), so
// protocol layers on either half learn the transport died under them
// rather than drained. Fault injection and the loader's give-up path use
// it; Close remains the graceful end-of-load teardown.
func (c *Conn) Abort(err error) {
	if c.closed {
		return
	}
	c.teardown()
	if c.clientEnd.onError != nil {
		c.clientEnd.onError(err)
	}
	if c.serverEnd.onError != nil {
		c.serverEnd.onError(err)
	}
	if c.clientEnd.onClose != nil {
		c.clientEnd.onClose()
	}
	if c.serverEnd.onClose != nil {
		c.serverEnd.onClose()
	}
}

// teardown is the shared Close/Abort state transition: no new writes, no
// new retransmit timers, in-flight segments still drain.
func (c *Conn) teardown() {
	c.closed = true
	c.clientEnd.out.closeHalf()
	c.serverEnd.out.closeHalf()
}

// Closed reports whether the connection has been closed or aborted.
func (c *Conn) Closed() bool { return c.closed }

// Write queues b for transmission to the peer end. Ownership of b
// transfers to the transport: the bytes are delivered to the receiver as
// zero-copy subslices, so the caller must not mutate b after Write.
//
// Writes on a closed or not-yet-established connection are dropped (the
// transport refuses the bytes rather than panicking: under fault
// injection an upper layer can race a teardown it has not yet observed).
func (e *End) Write(b []byte) {
	if e.conn.closed || !e.conn.established || len(b) == 0 {
		return
	}
	e.out.write(b)
}

// WriteV queues several chunks as one contiguous write, pumping the
// congestion window once: segmentation is identical to a single Write of
// the concatenated bytes, without the concatenation. Ownership of every
// chunk transfers to the transport (see Write). Empty chunks are
// skipped; like Write, the whole call is dropped on a closed or
// not-yet-established connection.
func (e *End) WriteV(chunks [][]byte) {
	if e.conn.closed || !e.conn.established {
		return
	}
	total := 0
	for _, b := range chunks {
		total += len(b)
	}
	if total == 0 {
		return
	}
	e.out.writev(chunks)
}

// Buffered returns the bytes accepted by Write that have not yet been
// admitted to the network. In-flight (sent but un-acked) bytes are
// excluded — they are reported by Inflight; Buffered+Inflight is the
// total not yet acknowledged.
func (e *End) Buffered() int { return e.out.buffered }

// Inflight returns un-acked bytes for this end's direction.
func (e *End) Inflight() int { return e.out.inflight }

// SetReceiver installs the ordered byte stream consumer for this end.
// The callback borrows its slice from the sender's buffers: it must copy
// anything it retains after returning.
func (e *End) SetReceiver(fn func([]byte)) { e.recv = fn }

// SetOnDrain installs a callback invoked (asynchronously, same virtual
// instant) whenever the send buffer fully drains into the network. The
// HTTP/2 scheduler uses it to decide the next frame lazily.
func (e *End) SetOnDrain(fn func()) { e.out.onDrain = fn }

// SetOnClose installs a teardown callback.
func (e *End) SetOnClose(fn func()) { e.onClose = fn }

// SetOnError installs a callback surfacing transport aborts (see
// Conn.Abort) to this end's protocol layer.
func (e *End) SetOnError(fn func(error)) { e.onError = fn }

// Conn returns the connection this end belongs to, so a layer holding
// only an endpoint can close or abort the whole connection.
func (e *End) Conn() *Conn { return e.conn }

// Close closes the owning connection (graceful; see Conn.Close).
func (e *End) Close() { e.conn.Close() }

// Abort aborts the owning connection (see Conn.Abort).
func (e *End) Abort(err error) { e.conn.Abort(err) }

// Stats for tests and ablations.
func (e *End) SentBytes() int64  { return e.out.sent }
func (e *End) AckedBytes() int64 { return e.out.acked }
func (e *End) Retransmits() int64 {
	return e.out.rtxCount
}
