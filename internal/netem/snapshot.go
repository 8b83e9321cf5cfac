package netem

import (
	"time"

	"repro/internal/sim"
)

// Snapshot/Restore capture the network's full run state so an engine can
// fork a simulation at a checkpoint: pipe occupancy and delivery lanes,
// every connection's transport state, and every segment in flight.
//
// Ownership contract (mirrors sim.Snapshot): the snapshot owns its
// slices and reuses them across Snapshot calls; the connection-bundle
// and *segment pointers it holds are aliases whose structs Restore
// rewrites in place, so retained handles — the events that carry a
// segment, a segment's retransmit timer, the h2 endpoints bound to a
// Conn's ends — keep working after a rewind. Connection structs are
// recycled across Network.Reset, and a checkpoint may be restored in a
// later run than the one that captured it, so a struct live at capture
// can have been re-dialed as a different connection in between:
// Restore therefore rewrites a connection's identity (ID, pipes,
// transport parameters, pending handshake continuation) along with its
// state, and rebuilds the connection free list the way it rebuilds the
// segment free list. Segment payloads are
// zero-copy subslices of writer-owned bytes (append-only arenas and
// immutable recorded bodies), so alias copies of the part lists are
// stable across the fork. A NetSnapshot is only meaningful against the
// Network it was taken from, with the owning Sim restored to the
// matching sim.Snapshot.

// pipeState is the captured contents of one link direction.
type pipeState struct {
	rate      Rate
	prop      time.Duration
	limit     int
	cut       bool
	busyUntil time.Duration
	queued    int
	pending   []pendingRelease
	lane      sim.LaneSnapshot
	delivered int64
	dropped   int64
}

func (p *pipe) snapshot(dst *pipeState) {
	dst.rate, dst.prop, dst.limit, dst.cut = p.rate, p.prop, p.limit, p.cut
	dst.busyUntil, dst.queued = p.busyUntil, p.queued
	dst.pending = append(dst.pending[:0], p.pending[p.phead:]...)
	p.lane.Snapshot(&dst.lane)
	dst.delivered, dst.dropped = p.delivered, p.dropped
}

func (p *pipe) restore(st *pipeState) {
	p.rate, p.prop, p.limit, p.cut = st.rate, st.prop, st.limit, st.cut
	p.busyUntil, p.queued = st.busyUntil, st.queued
	p.pending = append(p.pending[:0], st.pending...)
	p.phead = 0
	p.lane.Restore(&st.lane)
	p.delivered, p.dropped = st.delivered, st.dropped
}

// halfState is the captured contents of one sending direction.
type halfState struct {
	pipe, pipe2       *pipe
	ackPipe, ackPipe2 *pipe
	mss, overhead     int
	lossRate          float64

	cwnd      float64
	ssthresh  float64
	inflight  int
	chunks    [][]byte
	head      int
	off       int
	buffered  int
	onDrain   func()
	closed    bool
	nextSeq   int64
	expectSeq int64
	ooo       []*segment
	rtx       []*segment
	sent      int64
	acked     int64
	rtxCount  int64
	rtt       time.Duration
}

func (h *halfConn) snapshot(dst *halfState) {
	dst.pipe, dst.pipe2, dst.ackPipe, dst.ackPipe2 = h.pipe, h.pipe2, h.ackPipe, h.ackPipe2
	dst.mss, dst.overhead, dst.lossRate = h.mss, h.overhead, h.lossRate
	dst.cwnd, dst.ssthresh, dst.inflight = h.cwnd, h.ssthresh, h.inflight
	dst.chunks = append(dst.chunks[:0], h.chunks...)
	dst.head, dst.off, dst.buffered = h.head, h.off, h.buffered
	dst.onDrain, dst.closed = h.onDrain, h.closed
	dst.nextSeq, dst.expectSeq = h.nextSeq, h.expectSeq
	dst.ooo = append(dst.ooo[:0], h.ooo...)
	dst.rtx = append(dst.rtx[:0], h.rtx...)
	dst.sent, dst.acked, dst.rtxCount, dst.rtt = h.sent, h.acked, h.rtxCount, h.rtt
}

func (h *halfConn) restore(st *halfState) {
	h.pipe, h.pipe2, h.ackPipe, h.ackPipe2 = st.pipe, st.pipe2, st.ackPipe, st.ackPipe2
	h.mss, h.overhead, h.lossRate = st.mss, st.overhead, st.lossRate
	h.cwnd, h.ssthresh, h.inflight = st.cwnd, st.ssthresh, st.inflight
	clear(h.chunks)
	h.chunks = append(h.chunks[:0], st.chunks...)
	h.head, h.off, h.buffered = st.head, st.off, st.buffered
	h.onDrain, h.closed = st.onDrain, st.closed
	h.nextSeq, h.expectSeq = st.nextSeq, st.expectSeq
	clear(h.ooo)
	h.ooo = append(h.ooo[:0], st.ooo...)
	clear(h.rtx)
	h.rtx = append(h.rtx[:0], st.rtx...)
	h.sent, h.acked, h.rtxCount, h.rtt = st.sent, st.acked, st.rtxCount, st.rtt
}

// connState is the captured contents of one connection: its identity,
// both endpoints' callbacks and both sending directions.
type connState struct {
	b           *connBundle
	id          int
	onConnect   func(*Conn)
	established bool
	connectEnd  time.Duration
	closed      bool
	clientRecv  func([]byte)
	clientClose func()
	clientErr   func(error)
	serverRecv  func([]byte)
	serverClose func()
	serverErr   func(error)
	up          halfState // clientEnd.out (client -> server)
	down        halfState // serverEnd.out (server -> client)
}

func (b *connBundle) snapshot(cs *connState) {
	cs.b = b
	cs.id, cs.onConnect = b.Conn.ID, b.Conn.onConnect
	cs.established, cs.connectEnd, cs.closed = b.Conn.established, b.Conn.connectEnd, b.Conn.closed
	cs.clientRecv, cs.clientClose, cs.clientErr = b.cEnd.recv, b.cEnd.onClose, b.cEnd.onError
	cs.serverRecv, cs.serverClose, cs.serverErr = b.sEnd.recv, b.sEnd.onClose, b.sEnd.onError
	b.up.snapshot(&cs.up)
	b.down.snapshot(&cs.down)
}

func (b *connBundle) restore(cs *connState) {
	b.Conn.ID, b.Conn.onConnect = cs.id, cs.onConnect
	b.Conn.established, b.Conn.connectEnd, b.Conn.closed = cs.established, cs.connectEnd, cs.closed
	b.cEnd.recv, b.cEnd.onClose, b.cEnd.onError = cs.clientRecv, cs.clientClose, cs.clientErr
	b.sEnd.recv, b.sEnd.onClose, b.sEnd.onError = cs.serverRecv, cs.serverClose, cs.serverErr
	b.up.restore(&cs.up)
	b.down.restore(&cs.down)
}

// segState is the captured contents of one in-flight segment.
type segState struct {
	seg       *segment
	h         *halfConn
	seq       int64
	size      int
	attempt   int
	parts     [][]byte
	rtx       sim.Timer
	rtxIdx    int
	delivered bool
	ackDone   bool
}

// NetSnapshot is a deep copy of a Network's run state.
type NetSnapshot struct {
	prof       Profile
	nextConnID int
	down, up   pipeState
	conns      []connState
	segs       []segState
	segFree    []*segment
	connFree   []*connBundle
}

// Snapshot copies the network's run state into dst.
func (n *Network) Snapshot(dst *NetSnapshot) {
	dst.prof = n.Prof
	dst.nextConnID = n.nextConnID
	n.down.snapshot(&dst.down)
	n.up.snapshot(&dst.up)

	for len(dst.conns) < len(n.conns) {
		dst.conns = append(dst.conns, connState{})
	}
	clearConnStates(dst.conns[len(n.conns):])
	dst.conns = dst.conns[:len(n.conns)]
	for i, b := range n.conns {
		b.snapshot(&dst.conns[i])
	}

	for len(dst.segs) < len(n.segLive) {
		dst.segs = append(dst.segs, segState{})
	}
	clearSegStates(dst.segs[len(n.segLive):])
	dst.segs = dst.segs[:len(n.segLive)]
	for i, seg := range n.segLive {
		ss := &dst.segs[i]
		ss.seg, ss.h = seg, seg.h
		ss.seq, ss.size, ss.attempt = seg.seq, seg.size, seg.attempt
		ss.parts = append(ss.parts[:0], seg.parts...)
		ss.rtx, ss.rtxIdx = seg.rtx, seg.rtxIdx
		ss.delivered, ss.ackDone = seg.delivered, seg.ackDone
	}

	dst.segFree = append(dst.segFree[:0], n.segFree...)
	dst.connFree = append(dst.connFree[:0], n.connFree...)
}

// clearConnStates drops pointer references held by unused tail entries
// (kept for their inner slice capacity) so they pin nothing.
func clearConnStates(tail []connState) {
	for i := range tail {
		cs := &tail[i]
		cs.b, cs.onConnect = nil, nil
		cs.clientRecv, cs.clientClose, cs.serverRecv, cs.serverClose = nil, nil, nil, nil
		cs.clientErr, cs.serverErr = nil, nil
		scrubHalfState(&cs.up)
		scrubHalfState(&cs.down)
	}
}

func scrubHalfState(st *halfState) {
	st.pipe, st.pipe2, st.ackPipe, st.ackPipe2 = nil, nil, nil, nil
	clear(st.chunks)
	st.chunks = st.chunks[:0]
	st.onDrain = nil
	clear(st.ooo)
	st.ooo = st.ooo[:0]
	clear(st.rtx)
	st.rtx = st.rtx[:0]
}

func clearSegStates(tail []segState) {
	for i := range tail {
		ss := &tail[i]
		ss.seg, ss.h, ss.rtx = nil, nil, sim.Timer{}
		clear(ss.parts)
		ss.parts = ss.parts[:0]
	}
}

// Restore rewinds the network to the captured state. Connections and
// segments first allocated after the snapshot are dropped for the
// garbage collector; every object the snapshot references is rewritten
// in place.
func (n *Network) Restore(snap *NetSnapshot) {
	n.Prof = snap.prof
	n.nextConnID = snap.nextConnID
	n.down.restore(&snap.down)
	n.up.restore(&snap.up)

	clear(n.conns)
	n.conns = n.conns[:0]
	for i := range snap.conns {
		cs := &snap.conns[i]
		cs.b.restore(cs)
		n.conns = append(n.conns, cs.b)
	}

	clear(n.segLive)
	n.segLive = n.segLive[:0]
	for i := range snap.segs {
		ss := &snap.segs[i]
		seg := ss.seg
		seg.h = ss.h
		seg.seq, seg.size, seg.attempt = ss.seq, ss.size, ss.attempt
		clear(seg.parts)
		seg.parts = append(seg.parts[:0], ss.parts...)
		seg.rtx, seg.rtxIdx = ss.rtx, ss.rtxIdx
		seg.delivered, seg.ackDone = ss.delivered, ss.ackDone
		seg.liveIdx = i
		n.segLive = append(n.segLive, seg)
	}

	// Rebuild the free list from the snapshot. A segment free at capture
	// time may have been reused since (it could even be live right now in
	// the abandoned timeline), so scrub each entry; a segment live at
	// capture was just rewritten above and is never in this list.
	clear(n.segFree)
	n.segFree = n.segFree[:0]
	for _, seg := range snap.segFree {
		scrubSeg(seg)
		n.segFree = append(n.segFree, seg)
	}
	// Same for connections: a bundle free at capture may be live in the
	// abandoned timeline, a bundle live at capture was rewritten above.
	clear(n.connFree)
	n.connFree = n.connFree[:0]
	for _, b := range snap.connFree {
		b.reset()
		n.connFree = append(n.connFree, b)
	}
}
