package h2

import (
	"repro/internal/hpack"

	"repro/internal/netem"
)

// Snapshot/Restore capture a connection core's full run state — stream
// tables, priority tree, HPACK codec tables, frame-reader buffer and
// queued control frames — for the engine's fork-at-checkpoint replay.
//
// Ownership contract (mirrors sim.Snapshot): a snapshot owns its slices
// and reuses them across Snapshot calls, while the *Stream, *prioNode
// and wrapper-struct pointers it holds are aliases whose structs Restore
// rewrites in place, keeping handles retained elsewhere (the priority
// tree's st links, a loader's ClientStream references, the farm's
// ServerStream handles) valid across a rewind. The encode arenas are
// append-only and never rewound, so the captured control frames and
// queued DATA headers alias arena regions that post-checkpoint appends
// can never overwrite; payload slices alias immutable recorded bodies.

// clearRestore replaces dst's contents with src, clearing dropped
// pointer entries so pooled tables pin nothing from the abandoned
// timeline.
func clearRestore[T any](dst, src []*T) []*T {
	clear(dst)
	dst = dst[:0]
	return append(dst, src...)
}

// growStates extends dst to n entries, keeping each entry's inner slice
// capacity, and scrubs any unused tail via scrub.
func growStates[S any](dst []S, n int, scrub func(*S)) []S {
	for len(dst) < n {
		var zero S
		dst = append(dst, zero)
	}
	for i := n; i < len(dst); i++ {
		scrub(&dst[i])
	}
	return dst[:n]
}

// streamState is the captured contents of one Stream.
type streamState struct {
	st          *Stream
	id          uint32
	state       StreamState
	sendWindow  int64
	outChunks   [][]byte
	outHead     int
	outOff      int
	outLen      int
	outClosed   bool
	sentBody    int
	pauseAt     int
	resumeOn    []uint32 // sorted keys of the resumeOn set; nil when the map is nil
	hasResume   bool
	headersSent bool
	recvWindow  int64
	recvdBody   int
	isPush      bool
	pushParent  uint32
	user        any
}

func scrubStreamState(ss *streamState) {
	ss.st, ss.user = nil, nil
	clear(ss.outChunks)
	ss.outChunks = ss.outChunks[:0]
	ss.resumeOn = ss.resumeOn[:0]
}

func (st *Stream) snapshot(ss *streamState) {
	ss.st = st
	ss.id, ss.state = st.ID, st.State
	ss.sendWindow = st.sendWindow
	ss.outChunks = append(ss.outChunks[:0], st.outChunks...)
	ss.outHead, ss.outOff, ss.outLen = st.outHead, st.outOff, st.outLen
	ss.outClosed, ss.sentBody, ss.pauseAt = st.outClosed, st.sentBody, st.pauseAt
	ss.hasResume = st.resumeOn != nil
	ss.resumeOn = ss.resumeOn[:0]
	for id, v := range st.resumeOn {
		if v {
			ss.resumeOn = append(ss.resumeOn, id)
		}
	}
	ss.headersSent = st.headersSent
	ss.recvWindow, ss.recvdBody = st.recvWindow, st.recvdBody
	ss.isPush, ss.pushParent = st.IsPush, st.PushParent
	ss.user = st.User
}

func (st *Stream) restore(c *Core, ss *streamState) {
	st.ID, st.core, st.State = ss.id, c, ss.state
	st.sendWindow = ss.sendWindow
	clear(st.outChunks)
	st.outChunks = append(st.outChunks[:0], ss.outChunks...)
	st.outHead, st.outOff, st.outLen = ss.outHead, ss.outOff, ss.outLen
	st.outClosed, st.sentBody, st.pauseAt = ss.outClosed, ss.sentBody, ss.pauseAt
	switch {
	case !ss.hasResume:
		st.resumeOn = nil
	case st.resumeOn == nil:
		st.resumeOn = make(map[uint32]bool, len(ss.resumeOn))
	default:
		clear(st.resumeOn)
	}
	for _, id := range ss.resumeOn {
		st.resumeOn[id] = true
	}
	st.headersSent = ss.headersSent
	st.recvWindow, st.recvdBody = ss.recvWindow, ss.recvdBody
	st.IsPush, st.PushParent = ss.isPush, ss.pushParent
	st.User = ss.user
}

// prioState is the captured contents of one priority-tree node.
type prioState struct {
	n        *prioNode
	id       uint32
	parent   *prioNode
	children []*prioNode
	weight   uint8
	served   int64
	st       *Stream
}

func scrubPrioState(ps *prioState) {
	ps.n, ps.parent, ps.st = nil, nil, nil
	clear(ps.children)
	ps.children = ps.children[:0]
}

func capturePrio(ps *prioState, n *prioNode) {
	ps.n = n
	ps.id, ps.parent = n.id, n.parent
	ps.children = append(ps.children[:0], n.children...)
	ps.weight, ps.served, ps.st = n.weight, n.served, n.st
}

func restorePrio(ps *prioState) {
	n := ps.n
	n.id, n.parent = ps.id, ps.parent
	clear(n.children)
	n.children = append(n.children[:0], ps.children...)
	n.weight, n.served, n.st = ps.weight, ps.served, ps.st
}

// TreeSnapshot is a deep copy of a PriorityTree.
type TreeSnapshot struct {
	odd, even []*prioNode
	count     int
	free      []*prioNode
	root      prioState
	nodes     []prioState
}

// Snapshot copies the tree into dst. Every non-root node lives in one of
// the id-indexed tables (store on create, store(nil) on Remove), so the
// tables enumerate the live set.
func (t *PriorityTree) Snapshot(dst *TreeSnapshot) {
	dst.odd = append(dst.odd[:0], t.oddNodes...)
	dst.even = append(dst.even[:0], t.evenNodes...)
	dst.count = t.count
	dst.free = append(dst.free[:0], t.free...)
	capturePrio(&dst.root, t.root)
	live := 0
	for _, tab := range [2][]*prioNode{t.oddNodes, t.evenNodes} {
		for _, n := range tab {
			if n != nil {
				live++
			}
		}
	}
	dst.nodes = growStates(dst.nodes, live, scrubPrioState)
	i := 0
	for _, tab := range [2][]*prioNode{t.oddNodes, t.evenNodes} {
		for _, n := range tab {
			if n != nil {
				capturePrio(&dst.nodes[i], n)
				i++
			}
		}
	}
}

// Restore rewinds the tree to the captured state, rewriting node structs
// in place and re-scrubbing the free list (a node free at capture may
// have been reused since).
func (t *PriorityTree) Restore(snap *TreeSnapshot) {
	t.oddNodes = clearRestore(t.oddNodes, snap.odd)
	t.evenNodes = clearRestore(t.evenNodes, snap.even)
	t.count = snap.count
	// The root node is allocated once at New and rewritten in place, so
	// this reassigns the same pointer the snapshot captured.
	t.root = snap.root.n
	restorePrio(&snap.root)
	for i := range snap.nodes {
		restorePrio(&snap.nodes[i])
	}
	clear(t.free)
	t.free = t.free[:0]
	for _, n := range snap.free {
		n.parent, n.st = nil, nil
		clear(n.children)
		n.children = n.children[:0]
		n.served = 0
		t.free = append(t.free, n)
	}
}

// contSnap is the captured continuation-reassembly state.
type contSnap struct {
	streamID   uint32
	isPush     bool
	promisedID uint32
	endStream  bool
	hasPrio    bool
	prio       PriorityParam
	buf        []byte
}

// CoreSnapshot is a deep copy of a connection core's run state.
type CoreSnapshot struct {
	henc hpack.EncoderSnapshot
	hdec hpack.DecoderSnapshot

	frMax      int
	frChunks   [][]byte
	frHead     int
	frOff      int
	frBuffered int

	odd, even   []*Stream
	numStreams  int
	all         []streamState
	freeStreams []*Stream

	nextLocalID  uint32
	lastPeerID   uint32
	local, peer  Settings
	settingsRecv bool
	sendWindow   int64
	recvWindow   int64

	tree       TreeSnapshot
	pushAtRoot bool

	ctrl     [][]byte
	ctrlHead int

	started        bool
	goingAway      bool
	prefaceGot     int
	pushWasEnabled bool

	hasCont bool
	cont    contSnap

	framesSent, framesRecvd int64
	dataBytesSent           int64
	pushesSent, pushesRecvd int64
}

// Snapshot copies the core's connection state into dst.
func (c *Core) Snapshot(dst *CoreSnapshot) {
	c.henc.Snapshot(&dst.henc)
	c.hdec.Snapshot(&dst.hdec)

	dst.frMax = c.fr.MaxFrameSize
	dst.frChunks = append(dst.frChunks[:0], c.fr.chunks...)
	dst.frHead, dst.frOff, dst.frBuffered = c.fr.head, c.fr.off, c.fr.buffered

	dst.odd = append(dst.odd[:0], c.oddStreams...)
	dst.even = append(dst.even[:0], c.evenStreams...)
	dst.numStreams = c.numStreams
	dst.all = growStates(dst.all, len(c.allStreams), scrubStreamState)
	for i, st := range c.allStreams {
		st.snapshot(&dst.all[i])
	}
	dst.freeStreams = append(dst.freeStreams[:0], c.freeStreams...)

	dst.nextLocalID, dst.lastPeerID = c.nextLocalID, c.lastPeerID
	dst.local, dst.peer = c.local, c.peer
	dst.settingsRecv = c.settingsRecv
	dst.sendWindow, dst.recvWindow = c.sendWindow, c.recvWindow

	c.Tree.Snapshot(&dst.tree)
	dst.pushAtRoot = c.PushAtRoot

	dst.ctrl = append(dst.ctrl[:0], c.ctrl...)
	dst.ctrlHead = c.ctrlHead

	dst.started, dst.goingAway, dst.prefaceGot = c.started, c.goingAway, c.prefaceGot
	dst.pushWasEnabled = c.pushWasEnabled

	dst.hasCont = c.cont != nil
	if cs := c.cont; cs != nil {
		dst.cont.streamID, dst.cont.isPush = cs.streamID, cs.isPush
		dst.cont.promisedID, dst.cont.endStream = cs.promisedID, cs.endStream
		dst.cont.hasPrio = cs.prio != nil
		if cs.prio != nil {
			dst.cont.prio = *cs.prio
		}
		dst.cont.buf = append(dst.cont.buf[:0], cs.buf...)
	} else {
		dst.cont = contSnap{buf: dst.cont.buf[:0]}
	}

	dst.framesSent, dst.framesRecvd = c.FramesSent, c.FramesRecvd
	dst.dataBytesSent = c.DataBytesSent
	dst.pushesSent, dst.pushesRecvd = c.PushesSent, c.PushesRecvd
}

// Restore rewinds the core to the captured state. Stream structs are
// rewritten in place; streams created after the snapshot are dropped for
// the garbage collector, and the free list is rebuilt from the snapshot
// with a fresh scrub (a stream free at capture may have been reused
// since).
func (c *Core) Restore(snap *CoreSnapshot) {
	c.henc.Restore(&snap.henc)
	c.hdec.Restore(&snap.hdec)

	c.fr.MaxFrameSize = snap.frMax
	clear(c.fr.chunks)
	c.fr.chunks = append(c.fr.chunks[:0], snap.frChunks...)
	c.fr.head, c.fr.off, c.fr.buffered = snap.frHead, snap.frOff, snap.frBuffered

	c.oddStreams = clearRestore(c.oddStreams, snap.odd)
	c.evenStreams = clearRestore(c.evenStreams, snap.even)
	c.numStreams = snap.numStreams
	clear(c.allStreams)
	c.allStreams = c.allStreams[:0]
	for i := range snap.all {
		ss := &snap.all[i]
		ss.st.restore(c, ss)
		c.allStreams = append(c.allStreams, ss.st)
	}
	clear(c.freeStreams)
	c.freeStreams = c.freeStreams[:0]
	for _, st := range snap.freeStreams {
		clear(st.outChunks)
		*st = Stream{outChunks: st.outChunks[:0]}
		c.freeStreams = append(c.freeStreams, st)
	}

	c.nextLocalID, c.lastPeerID = snap.nextLocalID, snap.lastPeerID
	c.local, c.peer = snap.local, snap.peer
	c.settingsRecv = snap.settingsRecv
	c.sendWindow, c.recvWindow = snap.sendWindow, snap.recvWindow

	c.Tree.Restore(&snap.tree)
	c.PushAtRoot = snap.pushAtRoot

	clear(c.ctrl)
	c.ctrl = append(c.ctrl[:0], snap.ctrl...)
	c.ctrlHead = snap.ctrlHead

	c.started, c.goingAway, c.prefaceGot = snap.started, snap.goingAway, snap.prefaceGot
	c.pushWasEnabled = snap.pushWasEnabled

	if !snap.hasCont {
		c.cont = nil
	} else {
		if c.cont == nil {
			c.cont = &contState{}
		}
		cs := c.cont
		cs.streamID, cs.isPush = snap.cont.streamID, snap.cont.isPush
		cs.promisedID, cs.endStream = snap.cont.promisedID, snap.cont.endStream
		if snap.cont.hasPrio {
			p := snap.cont.prio
			cs.prio = &p
		} else {
			cs.prio = nil
		}
		cs.buf = append(cs.buf[:0], snap.cont.buf...)
	}

	c.FramesSent, c.FramesRecvd = snap.framesSent, snap.framesRecvd
	c.DataBytesSent = snap.dataBytesSent
	c.PushesSent, c.PushesRecvd = snap.pushesSent, snap.pushesRecvd
}

// clientStreamState is the captured contents of one ClientStream.
type clientStreamState struct {
	cs         *ClientStream
	st         *Stream
	req        Request
	pushed     bool
	onResponse func(resp Response)
	onData     func(data DataView)
	onComplete func(totalBody int)
	onFailed   func(code ErrCode)
	resp       Response
	gotResp    bool
	bodyLen    int
	complete   bool
	failed     bool
}

func scrubClientStreamState(s *clientStreamState) {
	*s = clientStreamState{}
}

// ClientSnapshot is a deep copy of a Client's connection state.
type ClientSnapshot struct {
	core        CoreSnapshot
	onPush      func(parent, promised *ClientStream) bool
	onGoAway    func(cl *Client, lastStreamID uint32)
	onConnError func(cl *Client, err ConnError)
	issued      []clientStreamState
	free        []*ClientStream
}

// Snapshot copies the client's connection state into dst.
func (c *Client) Snapshot(dst *ClientSnapshot) {
	c.Core.Snapshot(&dst.core)
	dst.onPush = c.OnPush
	dst.onGoAway, dst.onConnError = c.OnGoAway, c.OnConnError
	dst.issued = growStates(dst.issued, len(c.issued), scrubClientStreamState)
	for i, cs := range c.issued {
		s := &dst.issued[i]
		s.cs, s.st, s.req, s.pushed = cs, cs.St, cs.Req, cs.Pushed
		s.onResponse, s.onData, s.onComplete = cs.OnResponse, cs.OnData, cs.OnComplete
		s.onFailed = cs.OnFailed
		s.resp, s.gotResp = cs.resp, cs.gotResp
		s.bodyLen, s.complete, s.failed = cs.bodyLen, cs.complete, cs.failed
	}
	dst.free = append(dst.free[:0], c.free...)
}

// Restore rewinds the client to the captured state.
func (c *Client) Restore(snap *ClientSnapshot) {
	c.Core.Restore(&snap.core)
	c.OnPush = snap.onPush
	c.OnGoAway, c.OnConnError = snap.onGoAway, snap.onConnError
	clear(c.issued)
	c.issued = c.issued[:0]
	for i := range snap.issued {
		s := &snap.issued[i]
		cs := s.cs
		cs.Client, cs.St, cs.Req, cs.Pushed = c, s.st, s.req, s.pushed
		cs.OnResponse, cs.OnData, cs.OnComplete = s.onResponse, s.onData, s.onComplete
		cs.OnFailed = s.onFailed
		cs.resp, cs.gotResp = s.resp, s.gotResp
		cs.bodyLen, cs.complete, cs.failed = s.bodyLen, s.complete, s.failed
		c.issued = append(c.issued, cs)
	}
	clear(c.free)
	c.free = c.free[:0]
	for _, cs := range snap.free {
		*cs = ClientStream{}
		c.free = append(c.free, cs)
	}
}

// serverStreamState is the captured contents of one ServerStream.
type serverStreamState struct {
	sw  *ServerStream
	st  *Stream
	req Request
}

func scrubServerStreamState(s *serverStreamState) {
	*s = serverStreamState{}
}

// ServerSnapshot is a deep copy of a Server's connection state.
type ServerSnapshot struct {
	core    CoreSnapshot
	handler func(sw *ServerStream, req Request)
	issued  []serverStreamState
	free    []*ServerStream
}

// Snapshot copies the server's connection state into dst.
func (s *Server) Snapshot(dst *ServerSnapshot) {
	s.Core.Snapshot(&dst.core)
	dst.handler = s.Handler
	dst.issued = growStates(dst.issued, len(s.issued), scrubServerStreamState)
	for i, sw := range s.issued {
		dst.issued[i] = serverStreamState{sw: sw, st: sw.St, req: sw.Req}
	}
	dst.free = append(dst.free[:0], s.free...)
}

// Restore rewinds the server to the captured state.
func (s *Server) Restore(snap *ServerSnapshot) {
	s.Core.Restore(&snap.core)
	s.Handler = snap.handler
	clear(s.issued)
	s.issued = s.issued[:0]
	for i := range snap.issued {
		st := &snap.issued[i]
		sw := st.sw
		sw.Server, sw.St, sw.Req = s, st.st, st.req
		s.issued = append(s.issued, sw)
	}
	clear(s.free)
	s.free = s.free[:0]
	for _, sw := range snap.free {
		*sw = ServerStream{}
		s.free = append(s.free, sw)
	}
}

// EndpointSnapshot captures a SimEndpoint's attachment (which core and
// which transport end). The chunk pool and the cached method closures
// are scratch/stable and not captured.
type EndpointSnapshot struct {
	core *Core
	end  *netem.End
}

// Snapshot copies the endpoint's attachment into dst.
func (ep *SimEndpoint) Snapshot(dst *EndpointSnapshot) {
	dst.core, dst.end = ep.Core, ep.End
}

// Restore rewinds the endpoint's attachment. The transport end's
// callbacks (receiver, drain) are restored by the netem snapshot; the
// core's OnWritable is stable (bound to this endpoint's pump).
func (ep *SimEndpoint) Restore(snap *EndpointSnapshot) {
	ep.Core, ep.End = snap.core, snap.end
}
