package h2

import (
	"fmt"
	"slices"

	"repro/internal/hpack"
)

// Settings is a decoded view of the SETTINGS parameters relevant to the
// testbed.
type Settings struct {
	HeaderTableSize      uint32
	EnablePush           bool
	MaxConcurrentStreams uint32 // 0 = unlimited
	InitialWindowSize    uint32
	MaxFrameSize         uint32
}

// DefaultSettings returns the RFC 7540 defaults.
func DefaultSettings() Settings {
	return Settings{
		HeaderTableSize:   hpack.DefaultDynamicTableSize,
		EnablePush:        true,
		InitialWindowSize: DefaultInitialWindow,
		MaxFrameSize:      DefaultMaxFrameSize,
	}
}

// fillFrame populates f (reusing its Params storage) with s's announced
// parameters.
func (s Settings) fillFrame(f *settingsFrame) {
	push := uint32(0)
	if s.EnablePush {
		push = 1
	}
	f.Ack = false
	f.Params = append(f.Params[:0],
		setting{SettingHeaderTableSize, s.HeaderTableSize},
		setting{SettingEnablePush, push},
		setting{SettingInitialWindowSize, s.InitialWindowSize},
		setting{SettingMaxFrameSize, s.MaxFrameSize},
	)
	if s.MaxConcurrentStreams > 0 {
		f.Params = append(f.Params, setting{SettingMaxConcurrentStreams, s.MaxConcurrentStreams})
	}
}

// streamState is the RFC 7540 Section 5.1 stream lifecycle state.
type streamState int

// Stream states.
const (
	StateIdle streamState = iota
	StateReservedLocal
	StateReservedRemote
	StateOpen
	StateHalfClosedLocal
	StateHalfClosedRemote
	StateClosed
)

var stateNames = [...]string{"idle", "reserved-local", "reserved-remote",
	"open", "half-closed-local", "half-closed-remote", "closed"}

func (s streamState) String() string { return stateNames[s] }

// Stream is one HTTP/2 stream on a Core connection.
type Stream struct {
	ID   uint32
	core *Core

	State streamState

	// sending side. The output buffer is a chunked FIFO of
	// caller-provided slices; DATA frames are carved out of it as
	// zero-copy subslices.
	sendWindow  int64
	outChunks   [][]byte
	outHead     int  // index of first live chunk
	outOff      int  // consumed prefix of outChunks[outHead]
	outLen      int  // total unframed body bytes queued
	outClosed   bool // END_STREAM once the queue drains
	sentBody    int  // body bytes framed so far
	pauseAt     int  // pause output at this body offset; -1 = no pause
	headersSent bool

	// receiving side
	recvWindow int64

	// IsPush marks server-initiated streams.
	IsPush bool
	// PushParent is the stream whose response triggered this push.
	PushParent uint32

	// User is free for the embedding layer (request context etc.).
	User any
}

// queueData appends body bytes for transmission, scheduled by the tree.
// The slice is retained, not copied: DATA frames reference it until sent,
// so the caller must not mutate b after queueing (the testbed passes
// immutable recorded response bodies).
//
//repolint:owns DATA frames reference the slice until sent
//repolint:hotpath
func (st *Stream) queueData(b []byte) {
	if len(b) > 0 {
		st.outChunks = append(st.outChunks, b)
		st.outLen += len(b)
	}
	st.core.wake()
}

// closeOut marks the sending side finished: END_STREAM is set on the
// final DATA frame (or an empty one).
func (st *Stream) closeOut() {
	st.outClosed = true
	st.core.wake()
}

// pauseOutputAt pauses the stream's output once off body bytes have been
// framed. This is the interleaving hook: while paused, the scheduler
// serves other sendable streams (e.g. pushed children).
func (st *Stream) pauseOutputAt(off int) {
	st.pauseAt = off
	st.core.wake()
}

// resumeAfter arms the pause gate to clear when all listed streams have
// finished sending. An empty list resumes immediately.
func (st *Stream) resumeAfter(ids []uint32) {
	if len(ids) == 0 {
		st.resume()
		return
	}
	st.core.dropGates(st)
	for _, id := range ids {
		st.core.gates = append(st.core.gates, gate{holder: st, on: id})
	}
}

// resume clears any pause gate.
func (st *Stream) resume() {
	st.pauseAt = -1
	st.core.dropGates(st)
	st.core.wake()
}

// paused reports whether output is currently gated.
func (st *Stream) paused() bool {
	return st.pauseAt >= 0 && st.sentBody >= st.pauseAt
}

// reset queues an RST_STREAM and closes the stream locally.
//
//repolint:notpooled protocol RST_STREAM; Core.reset recycles stream structs wholesale
func (st *Stream) reset(code ErrCode) {
	if st.State == StateClosed {
		return
	}
	st.core.queueRST(st.ID, code)
	st.core.closeStream(st)
}

// Core is a transport-agnostic HTTP/2 connection state machine. The
// embedding transport feeds received bytes via Recv and drains outgoing
// bytes via AppendWrite; all protocol callbacks fire synchronously inside
// those calls.
//
//repolint:pooled
type Core struct {
	IsServer bool //repolint:keep connection identity, fixed at newCore; reset rederives nextLocalID from it

	henc *hpack.Encoder
	hdec *hpack.Decoder
	fr   FrameReader

	// Stream tables, keyed by a per-connection dense stream index:
	// stream IDs ascend by 2 per initiator, so (id-1)/2 (odd, client
	// initiated) and id/2-1 (even, pushes) are dense slice indices.
	// Slices replace the old map so the per-stream hot path (every DATA
	// frame, every window update) is an index, not a hash lookup.
	oddStreams  []*Stream
	evenStreams []*Stream
	allStreams  []*Stream // every stream created this connection, for Reset recycling
	freeStreams []*Stream

	nextLocalID  uint32
	lastPeerID   uint32
	local, peer  Settings
	settingsRecv bool

	sendWindow int64 // connection-level credit for sending
	recvWindow int64

	Tree *PriorityTree

	// gates are the armed interleave gates (Stream.resumeAfter): one list
	// per connection, so a recycled stream has nothing to re-grow and a
	// finishing stream scans only gates, not every live stream.
	gates []gate

	// sendableFn is the sendable method bound once at construction: the
	// scheduler passes this field on every write, so the hot send path
	// reads a cached funcval instead of materializing a method value.
	sendableFn func(*Stream) bool //repolint:keep bound method value, cached at newCore

	// PushAtRoot, when true, attaches pushed streams at the tree root
	// instead of as children of their parent stream (an ablation of the
	// h2o default).
	PushAtRoot bool

	ctrl      [][]byte // encoded control frames, FIFO (ctrlHead = first live)
	ctrlHead  int
	ctrlArena []byte // append-only encode arena, rewound only by Reset
	hdrArena  []byte // append-only DATA-header arena, rewound only by Reset

	// Scratch frame structs for the hot control-frame paths: queueCtrl
	// serializes the frame into the arena before returning, so one
	// reusable struct per type is enough.
	hfScratch  headersFrame      //repolint:keep scratch frame, fully rewritten before each use
	ppScratch  pushPromiseFrame  //repolint:keep scratch frame, fully rewritten before each use
	wuScratch  windowUpdateFrame //repolint:keep scratch frame, fully rewritten before each use
	rstScratch rstStreamFrame    //repolint:keep scratch frame, fully rewritten before each use
	setScratch settingsFrame     //repolint:keep scratch frame, fully rewritten before each use
	started    bool
	goingAway  bool
	prefaceGot int // client preface bytes consumed (server side)

	// pushWasEnabled records that this side ever advertised ENABLE_PUSH=1.
	// A PUSH_PROMISE arriving after a mid-connection disable (racing our
	// SETTINGS on the wire) is then a per-stream refusal, not the
	// connection error an always-disabled endpoint must raise (RFC 7540
	// 6.6 only demands the connection error once the setting was
	// acknowledged).
	pushWasEnabled bool

	// continuation reassembly state
	cont *contState

	// Callbacks. All may be nil.
	OnHeaders     func(st *Stream, fields []hpack.HeaderField, endStream bool) //repolint:keep owned by the pooled Client/Server wrappers
	OnData        func(st *Stream, data DataView, endStream bool)              //repolint:keep owned by the pooled Client/Server wrappers
	OnPushPromise func(parent, promised *Stream, fields []hpack.HeaderField)   //repolint:keep owned by the pooled Client/Server wrappers
	OnRST         func(st *Stream, code ErrCode)                               //repolint:keep owned by the pooled Client/Server wrappers
	OnSettings    func(s Settings)                                             //repolint:keep owned by the pooled Client/Server wrappers
	OnGoAway      func(f *goAwayFrame)                                         //repolint:keep owned by the pooled Client/Server wrappers
	OnConnError   func(err ConnError)                                          //repolint:keep owned by the pooled Client/Server wrappers
	OnStreamSent  func(st *Stream)                                             //repolint:keep owned by the wrappers; fires when the local side finishes sending st
	OnWritable    func()                                                       //repolint:keep owned by the wrappers; fires when data becomes available to send

	// stats
	FramesSent, FramesRecvd int64
	DataBytesSent           int64
	PushesSent, PushesRecvd int64
}

// gate keeps holder's output paused (pauseOutputAt) until stream on has
// finished sending or closed; holder resumes when its last gate clears.
type gate struct {
	holder *Stream
	on     uint32
}

type contState struct {
	streamID   uint32
	isPush     bool
	promisedID uint32
	endStream  bool
	prio       *PriorityParam
	buf        []byte
}

// newCore builds a connection core. local describes our advertised
// settings.
func newCore(isServer bool, local Settings) *Core {
	c := &Core{
		IsServer: isServer,
		henc:     hpack.NewEncoder(),
		hdec:     hpack.NewDecoder(),
		local:    local,
		peer:     DefaultSettings(),
		// Connection-level windows always start at 65535 (RFC 7540
		// 6.9.2); SETTINGS_INITIAL_WINDOW_SIZE affects stream windows only.
		sendWindow: DefaultInitialWindow,
		recvWindow: DefaultInitialWindow,
		Tree:       NewPriorityTree(),
	}
	c.sendableFn = c.sendable
	c.pushWasEnabled = local.EnablePush
	c.hdec.SetAllowedMaxDynamicTableSize(local.HeaderTableSize)
	if isServer {
		c.nextLocalID = 2
	} else {
		c.nextLocalID = 1
	}
	return c
}

// reset re-arms the core for a fresh connection with the given advertised
// settings, recycling every buffer, stream struct and priority node the
// previous connection grew: a pooled core runs its steady-state
// connection without re-growing any of them. Callbacks installed on the
// core are preserved (the pooled Client/Server wrappers own them); stats
// are zeroed. The caller must guarantee the previous connection is fully
// torn down — no transport still references the core.
func (c *Core) reset(local Settings) {
	for _, st := range c.allStreams {
		for i := range st.outChunks {
			st.outChunks[i] = nil
		}
		*st = Stream{outChunks: st.outChunks[:0]}
		c.freeStreams = append(c.freeStreams, st)
	}
	c.allStreams = c.allStreams[:0]
	clearStreamSlice(c.oddStreams)
	clearStreamSlice(c.evenStreams)
	c.oddStreams, c.evenStreams = c.oddStreams[:0], c.evenStreams[:0]

	c.henc.Reset()
	c.hdec.Reset()
	c.hdec.SetAllowedMaxDynamicTableSize(local.HeaderTableSize)
	c.fr.Reset()
	c.Tree.Reset()

	c.local, c.peer = local, DefaultSettings()
	c.settingsRecv = false
	c.sendWindow, c.recvWindow = DefaultInitialWindow, DefaultInitialWindow
	c.PushAtRoot = false
	for i := c.ctrlHead; i < len(c.ctrl); i++ {
		c.ctrl[i] = nil
	}
	c.ctrl, c.ctrlHead = c.ctrl[:0], 0
	// The previous connection is torn down, so nothing references the
	// arenas' bytes any more and their blocks serve the next connection.
	c.ctrlArena, c.hdrArena = c.ctrlArena[:0], c.hdrArena[:0]
	c.gates = c.gates[:0]
	c.started, c.goingAway, c.prefaceGot = false, false, 0
	c.pushWasEnabled = local.EnablePush
	c.cont = nil
	if c.IsServer {
		c.nextLocalID = 2
	} else {
		c.nextLocalID = 1
	}
	c.lastPeerID = 0
	c.FramesSent, c.FramesRecvd, c.DataBytesSent = 0, 0, 0
	c.PushesSent, c.PushesRecvd = 0, 0
}

func clearStreamSlice(s []*Stream) {
	for i := range s {
		s[i] = nil
	}
}

// maxTrackedStreamID bounds the stream IDs admitted into the dense
// stream/priority tables. The tables are indexed by id/2, so an
// arbitrary peer-chosen ID (stream IDs may be sparse, and PRIORITY may
// reference any idle ID) must not translate into an arbitrary slice
// length; beyond this bound the connection is torn down instead. The
// old map-based tables were bounded by live-stream count; this keeps
// the slice tables bounded by ID range (<= ~4 MB of nil slots).
const maxTrackedStreamID = 1 << 20

// getStream returns the stream with id, nil when unknown (or id 0).
//
//repolint:hotpath
func (c *Core) getStream(id uint32) *Stream {
	if id == 0 {
		return nil
	}
	if id%2 == 1 {
		if i := int(id-1) / 2; i < len(c.oddStreams) {
			return c.oddStreams[i]
		}
		return nil
	}
	if i := int(id)/2 - 1; i < len(c.evenStreams) {
		return c.evenStreams[i]
	}
	return nil
}

// setStream installs st in its dense table slot, growing the table to
// cover the index.
//
//repolint:hotpath
func (c *Core) setStream(st *Stream) {
	tab := &c.evenStreams
	i := int(st.ID)/2 - 1
	if st.ID%2 == 1 {
		tab = &c.oddStreams
		i = int(st.ID-1) / 2
	}
	for len(*tab) <= i {
		*tab = append(*tab, nil)
	}
	(*tab)[i] = st
}

// delStream clears st's table slot.
func (c *Core) delStream(id uint32) {
	tab := c.evenStreams
	i := int(id)/2 - 1
	if id%2 == 1 {
		tab = c.oddStreams
		i = int(id-1) / 2
	}
	if i < len(tab) {
		tab[i] = nil
	}
}

// Start queues the connection preface (clients) and initial SETTINGS.
func (c *Core) Start() {
	if c.started {
		return
	}
	c.started = true
	if !c.IsServer {
		c.pushCtrl(prefaceChunk)
	}
	c.local.fillFrame(&c.setScratch)
	c.queueCtrl(&c.setScratch)
	// Enlarge the connection receive window beyond the 64 KB default, as
	// browsers do, so connection flow control never throttles the testbed
	// unless configured to.
	if extra := int64(c.local.InitialWindowSize) * 4; extra > 0 {
		c.recvWindow += extra
		c.queueWindowUpdate(0, uint32(extra))
	}
	c.wake()
}

// LocalSettings returns our advertised settings.
func (c *Core) LocalSettings() Settings { return c.local }

//repolint:hotpath
func (c *Core) wake() {
	if c.OnWritable != nil {
		c.OnWritable()
	}
}

// settingsAckFrame is the shared SETTINGS ack; queueCtrl only reads it.
var settingsAckFrame = &settingsFrame{Ack: true}

// clientPrefaceBytes is the shared, immutable preface chunk; transports
// treat queued slices as read-only, so one copy serves every connection.
var prefaceChunk = []byte(ClientPreface)

// arenaBlock is the size of a connection's first control and DATA-header
// arena blocks.
const arenaBlock = 4096

// arenaRoom returns arena with room for n more bytes. Within a
// connection an arena is never rewound, so the slices carved out of it
// stay valid while the transport references them: a full block is left
// to the GC once its frames are consumed and replaced by one twice the
// size, which Reset rewinds for the next connection — a pooled core
// therefore stops allocating blocks once one has held a whole
// connection's frames.
func arenaRoom(arena []byte, n int) []byte {
	if cap(arena)-len(arena) >= n {
		return arena
	}
	return make([]byte, 0, max(arenaBlock, 2*cap(arena)))
}

// queueCtrl encodes a control frame into the connection's control arena
// and queues the resulting subslice; a frame larger than the room
// arenaRoom guarantees makes append reallocate, which only starts the
// next block early.
//
//repolint:hotpath
func (c *Core) queueCtrl(f Frame) {
	c.ctrlArena = arenaRoom(c.ctrlArena, 256)
	start := len(c.ctrlArena)
	c.ctrlArena = appendFrame(c.ctrlArena, f)
	c.pushCtrl(c.ctrlArena[start:len(c.ctrlArena):len(c.ctrlArena)])
	c.wake()
}

//repolint:owns queued ctrl bytes ride c.ctrl until popCtrl hands them to the transport
//repolint:hotpath
func (c *Core) pushCtrl(b []byte) {
	c.ctrl = append(c.ctrl, b)
}

//repolint:hotpath
func (c *Core) popCtrl() []byte {
	b := c.ctrl[c.ctrlHead]
	c.ctrl[c.ctrlHead] = nil
	c.ctrlHead++
	if c.ctrlHead == len(c.ctrl) {
		c.ctrl, c.ctrlHead = c.ctrl[:0], 0
	}
	return b
}

func (c *Core) ctrlPending() bool { return c.ctrlHead < len(c.ctrl) }

// queueWindowUpdate queues a WINDOW_UPDATE through the scratch struct
// (the flow-control hot path).
//
//repolint:hotpath
func (c *Core) queueWindowUpdate(streamID, inc uint32) {
	c.wuScratch = windowUpdateFrame{StreamID: streamID, Increment: inc}
	c.queueCtrl(&c.wuScratch)
}

// queueRST queues an RST_STREAM through the scratch struct.
//
//repolint:hotpath
func (c *Core) queueRST(streamID uint32, code ErrCode) {
	c.rstScratch = rstStreamFrame{StreamID: streamID, Code: code}
	c.queueCtrl(&c.rstScratch)
}

func (c *Core) connError(code ErrCode, msg string) {
	if c.goingAway {
		return
	}
	c.goingAway = true
	err := ConnError{code, msg}
	c.queueCtrl(&goAwayFrame{LastStreamID: c.lastPeerID, Code: code, Debug: []byte(msg)})
	if c.OnConnError != nil {
		c.OnConnError(err)
	}
}

// GoAway initiates a local shutdown of the connection: a GOAWAY frame
// carrying the highest peer stream ID processed is queued (and still
// flushes through the normal send path), and the core stops processing
// further input. Fault injection uses it to kill a healthy connection
// mid-load; unlike connError it is not an error locally, so OnConnError
// does not fire.
func (c *Core) GoAway(code ErrCode) {
	if c.goingAway {
		return
	}
	c.goingAway = true
	c.queueCtrl(&goAwayFrame{LastStreamID: c.lastPeerID, Code: code})
}

// GoingAway reports whether the connection is shutting down (GOAWAY sent
// or received, or a connection error raised).
func (c *Core) GoingAway() bool { return c.goingAway }

// SetEnablePush changes our advertised ENABLE_PUSH mid-connection,
// announcing it to the peer with a single-parameter SETTINGS frame. A
// client uses it to turn push off while a connection is live; promises
// already racing toward us are refused per stream (see finishPushPromise)
// rather than treated as a connection error.
func (c *Core) SetEnablePush(enabled bool) {
	if c.local.EnablePush == enabled {
		return
	}
	c.local.EnablePush = enabled
	if enabled {
		c.pushWasEnabled = true
	}
	v := uint32(0)
	if enabled {
		v = 1
	}
	c.setScratch.Ack = false
	c.setScratch.Params = append(c.setScratch.Params[:0], setting{SettingEnablePush, v})
	c.queueCtrl(&c.setScratch)
}

// AbortPushes resets every live pushed stream with code (fault
// injection: a server abandoning its in-flight pushes mid-load) and
// returns the number reset.
func (c *Core) AbortPushes(code ErrCode) int {
	n := 0
	for _, st := range c.evenStreams {
		if st != nil && st.IsPush && st.State != StateClosed {
			st.reset(code)
			n++
		}
	}
	return n
}

func (c *Core) newStream(id uint32, state streamState) *Stream {
	var st *Stream
	if n := len(c.freeStreams); n > 0 {
		st = c.freeStreams[n-1]
		c.freeStreams[n-1] = nil
		c.freeStreams = c.freeStreams[:n-1]
	} else {
		st = &Stream{}
	}
	outChunks := st.outChunks[:0]
	*st = Stream{
		ID:         id,
		core:       c,
		State:      state,
		sendWindow: int64(c.peer.InitialWindowSize),
		recvWindow: int64(c.local.InitialWindowSize),
		pauseAt:    -1,
		outChunks:  outChunks,
	}
	c.allStreams = append(c.allStreams, st)
	c.setStream(st)
	c.Tree.Bind(st)
	return st
}

func (c *Core) closeStream(st *Stream) {
	if st.State == StateClosed {
		return
	}
	st.State = StateClosed
	for i := range st.outChunks {
		st.outChunks[i] = nil
	}
	st.outChunks, st.outHead, st.outOff, st.outLen = st.outChunks[:0], 0, 0, 0
	c.delStream(st.ID)
	c.Tree.Remove(st.ID)
	c.dropGates(st)
	c.releaseGatesOn(st)
}

// dropGates disarms every gate holder waits on.
func (c *Core) dropGates(holder *Stream) {
	c.gates = slices.DeleteFunc(c.gates, func(g gate) bool { return g.holder == holder })
}

// releaseGatesOn clears interleave resume gates waiting on st. Called on
// both completion (finishOut) and abnormal close (reset, abort): a gate
// waiting on a dead stream would otherwise pause its holder forever —
// an aborted pushed child must not wedge the interleaved base document.
func (c *Core) releaseGatesOn(st *Stream) {
	// Each round searches afresh: Resume wakes the transport, which may
	// finish further streams and re-enter here.
	for {
		i := slices.IndexFunc(c.gates, func(g gate) bool { return g.on == st.ID })
		if i < 0 {
			return
		}
		holder := c.gates[i].holder
		c.gates = slices.Delete(c.gates, i, i+1)
		if !slices.ContainsFunc(c.gates, func(g gate) bool { return g.holder == holder }) {
			holder.resume()
		}
	}
}

// --- client-side API ---

// encodeOrPre emits a header block: the pre-encoded bytes when pe is
// applicable at this point of the connection (a memcpy plus the replayed
// table insertions), the live encoder otherwise. Either way the wire
// bytes are identical; pre-encoding only moves the work to prepare time.
func (c *Core) encodeOrPre(fields []hpack.HeaderField, pe *hpack.PreEncoded, seqPos int) []byte {
	if pe != nil && c.henc.CanUsePreEncoded(*pe, seqPos) {
		c.henc.ApplyPreEncoded(*pe)
		return pe.Block
	}
	return c.henc.EncodeBlock(fields)
}

// startRequest opens a new client stream carrying a request without
// a body. prio, when non-nil, is sent as the HEADERS priority block. pe
// is an optional prepare-time pre-encoded header block, used when it
// matches the connection's encoder state (request blocks are
// pre-encoded as a connection's first block) and ignored otherwise.
func (c *Core) startRequest(fields []hpack.HeaderField, pe *hpack.PreEncoded, prio *PriorityParam) *Stream {
	if c.IsServer {
		panic("h2: StartRequest on server core")
	}
	id := c.nextLocalID
	c.nextLocalID += 2
	st := c.newStream(id, StateHalfClosedLocal) // GET: we send END_STREAM
	block := c.encodeOrPre(fields, pe, 0)
	hf := &c.hfScratch
	*hf = headersFrame{
		StreamID:   id,
		EndStream:  true,
		EndHeaders: true,
	}
	if prio != nil {
		hf.HasPriority = true
		hf.Priority = *prio
		c.Tree.Update(id, *prio)
	}
	c.queueHeaderBlock(hf, block)
	st.headersSent = true
	return st
}

// queueHeaderBlock splits an oversize header block into CONTINUATIONs.
//
//repolint:owns the block rides the queued frames until written
func (c *Core) queueHeaderBlock(hf *headersFrame, block []byte) {
	maxFS := int(c.peer.MaxFrameSize)
	overhead := 0
	if hf.HasPriority {
		overhead = 5
	}
	if len(block)+overhead <= maxFS {
		hf.Block = block
		hf.EndHeaders = true
		c.queueCtrl(hf)
		return
	}
	first := maxFS - overhead
	hf.Block = block[:first]
	hf.EndHeaders = false
	c.queueCtrl(hf)
	block = block[first:]
	for len(block) > 0 {
		n := maxFS
		if n > len(block) {
			n = len(block)
		}
		c.queueCtrl(&continuationFrame{
			StreamID:   hf.StreamID,
			Block:      block[:n],
			EndHeaders: n == len(block),
		})
		block = block[n:]
	}
}

// --- server-side API ---

// sendResponseHeaders queues the response HEADERS for st, from the
// optional pre-encoded block pe when it is valid at sequence position
// seqPos (it is ignored when the encoder is elsewhere).
func (c *Core) sendResponseHeaders(st *Stream, fields []hpack.HeaderField, pe *hpack.PreEncoded, seqPos int, endStream bool) {
	block := c.encodeOrPre(fields, pe, seqPos)
	hf := &c.hfScratch
	*hf = headersFrame{StreamID: st.ID, EndStream: endStream}
	c.queueHeaderBlock(hf, block)
	st.headersSent = true
	if endStream {
		st.outClosed = true
		c.finishOut(st)
	}
	switch st.State {
	case StateReservedLocal:
		st.State = StateHalfClosedRemote
	}
}

// push reserves a promised stream answering reqFields, announced on
// parent, from the optional pre-encoded PUSH_PROMISE block pe when it is
// valid at sequence position seqPos (it is ignored when the encoder is
// elsewhere). It returns nil when the peer disabled push.
func (c *Core) push(parent *Stream, reqFields []hpack.HeaderField, pe *hpack.PreEncoded, seqPos int) *Stream {
	if !c.IsServer {
		panic("h2: Push on client core")
	}
	if !c.peer.EnablePush {
		return nil
	}
	id := c.nextLocalID
	c.nextLocalID += 2
	st := c.newStream(id, StateReservedLocal)
	st.IsPush = true
	st.PushParent = parent.ID
	// h2o default: the pushed stream depends on the stream that triggered
	// it with default weight, so it is starved until the parent finishes.
	// Ablation: attach at the root with a CSS-class weight, letting the
	// push compete with the parent immediately.
	parentID := parent.ID
	weight := uint8(DefaultWeight)
	if c.PushAtRoot {
		parentID = 0
		weight = 219
	}
	c.Tree.Update(id, PriorityParam{ParentID: parentID, Weight: weight})
	block := c.encodeOrPre(reqFields, pe, seqPos)
	c.ppScratch = pushPromiseFrame{
		StreamID:   parent.ID,
		PromisedID: id,
		Block:      block,
		EndHeaders: true,
	}
	c.queueCtrl(&c.ppScratch)
	c.PushesSent++
	return st
}

// --- receive path ---

// Recv feeds transport bytes into the connection. The slice is retained
// by the frame reader until parsed (zero-copy), so the caller must not
// mutate it after the call; callbacks that want to keep payload bytes
// must copy them (frame payloads are only valid during the callback).
//
//repolint:owns fed to the zero-copy frame reader, which aliases it until parsed
//repolint:hotpath
func (c *Core) Recv(b []byte) {
	if c.goingAway {
		return
	}
	if c.IsServer && !c.prefaceStripped() {
		b = c.stripPreface(b)
		if b == nil {
			return
		}
	}
	c.fr.Feed(b)
	for {
		f, err := c.fr.Next()
		if err != nil {
			if ce, ok := err.(ConnError); ok {
				c.connError(ce.Code, ce.Msg)
			} else {
				c.connError(ErrCodeProtocol, err.Error())
			}
			return
		}
		if f == nil {
			return
		}
		c.FramesRecvd++
		c.handleFrame(f)
		if c.goingAway {
			return
		}
	}
}

func (c *Core) prefaceStripped() bool { return c.prefaceGot >= len(ClientPreface) }

func (c *Core) stripPreface(b []byte) []byte {
	need := len(ClientPreface) - c.prefaceGot
	n := len(b)
	if n > need {
		n = need
	}
	for i := 0; i < n; i++ {
		if b[i] != ClientPreface[c.prefaceGot+i] {
			c.connError(ErrCodeProtocol, "bad connection preface")
			return nil
		}
	}
	c.prefaceGot += n
	if n == len(b) && c.prefaceGot < len(ClientPreface) {
		return nil
	}
	return b[n:]
}

func (c *Core) handleFrame(f Frame) {
	if c.cont != nil && f.Kind() != FrameContinuation {
		c.connError(ErrCodeProtocol, "expected CONTINUATION")
		return
	}
	switch f := f.(type) {
	case *settingsFrame:
		c.handleSettings(f)
	case *headersFrame:
		c.handleHeaders(f)
	case *continuationFrame:
		c.handleContinuation(f)
	case *dataFrame:
		c.handleData(f)
	case *pushPromiseFrame:
		c.handlePushPromise(f)
	case *priorityFrame:
		if f.StreamID == f.Priority.ParentID {
			c.streamError(f.StreamID, ErrCodeProtocol)
			return
		}
		if f.StreamID > maxTrackedStreamID || f.Priority.ParentID > maxTrackedStreamID {
			c.connError(ErrCodeEnhanceYourCalm, "stream id exceeds tracked range")
			return
		}
		c.Tree.Update(f.StreamID, f.Priority)
	case *rstStreamFrame:
		if st := c.getStream(f.StreamID); st != nil {
			if c.OnRST != nil {
				c.OnRST(st, f.Code)
			}
			c.closeStream(st)
		}
	case *windowUpdateFrame:
		c.handleWindowUpdate(f)
	case *pingFrame:
		if !f.Ack {
			c.queueCtrl(&pingFrame{Ack: true, Data: f.Data})
		}
	case *goAwayFrame:
		c.goingAway = true
		if c.OnGoAway != nil {
			c.OnGoAway(f)
		}
	}
}

//repolint:hotpath
func (c *Core) handleSettings(f *settingsFrame) {
	if f.Ack {
		return
	}
	old := c.peer
	for _, s := range f.Params {
		switch s.ID {
		case SettingHeaderTableSize:
			c.peer.HeaderTableSize = s.Val
			c.henc.SetMaxDynamicTableSize(s.Val)
		case SettingEnablePush:
			if s.Val > 1 {
				c.connError(ErrCodeProtocol, "ENABLE_PUSH not 0/1")
				return
			}
			c.peer.EnablePush = s.Val == 1
		case SettingMaxConcurrentStreams:
			c.peer.MaxConcurrentStreams = s.Val
		case SettingInitialWindowSize:
			if s.Val > maxWindow {
				c.connError(ErrCodeFlowControl, "INITIAL_WINDOW_SIZE too large")
				return
			}
			c.peer.InitialWindowSize = s.Val
			// Adjust all stream send windows by the delta (RFC 6.9.2).
			delta := int64(s.Val) - int64(old.InitialWindowSize)
			for _, tab := range [2][]*Stream{c.oddStreams, c.evenStreams} {
				for _, st := range tab {
					if st != nil {
						st.sendWindow += delta
					}
				}
			}
		case SettingMaxFrameSize:
			if s.Val < DefaultMaxFrameSize || s.Val > 1<<24-1 {
				c.connError(ErrCodeProtocol, "bad MAX_FRAME_SIZE")
				return
			}
			c.peer.MaxFrameSize = s.Val
		}
	}
	c.settingsRecv = true
	c.queueCtrl(settingsAckFrame)
	if c.OnSettings != nil {
		c.OnSettings(c.peer)
	}
	c.wake()
}

func (c *Core) handleHeaders(f *headersFrame) {
	if f.HasPriority && f.Priority.ParentID == f.StreamID {
		c.streamError(f.StreamID, ErrCodeProtocol)
		return
	}
	if !f.EndHeaders {
		var prio *PriorityParam
		if f.HasPriority {
			p := f.Priority
			prio = &p
		}
		c.cont = &contState{
			streamID:  f.StreamID,
			endStream: f.EndStream,
			prio:      prio,
			buf:       append([]byte(nil), f.Block...),
		}
		return
	}
	var prio *PriorityParam
	if f.HasPriority {
		p := f.Priority
		prio = &p
	}
	c.finishHeaders(f.StreamID, f.Block, f.EndStream, prio)
}

func (c *Core) handleContinuation(f *continuationFrame) {
	if c.cont == nil || c.cont.streamID != f.StreamID {
		c.connError(ErrCodeProtocol, "unexpected CONTINUATION")
		return
	}
	c.cont.buf = append(c.cont.buf, f.Block...)
	if !f.EndHeaders {
		return
	}
	cs := c.cont
	c.cont = nil
	if cs.isPush {
		c.finishPushPromise(cs.streamID, cs.promisedID, cs.buf)
		return
	}
	c.finishHeaders(cs.streamID, cs.buf, cs.endStream, cs.prio)
}

func (c *Core) finishHeaders(streamID uint32, block []byte, endStream bool, prio *PriorityParam) {
	fields, err := c.hdec.DecodeBlock(block)
	if err != nil {
		c.connError(ErrCodeCompression, err.Error())
		return
	}
	st := c.getStream(streamID)
	if st == nil {
		if c.IsServer {
			// New request stream.
			if streamID%2 == 0 || streamID <= c.lastPeerID {
				c.connError(ErrCodeProtocol, fmt.Sprintf("bad client stream id %d", streamID))
				return
			}
			if streamID > maxTrackedStreamID {
				c.connError(ErrCodeEnhanceYourCalm, "stream id exceeds tracked range")
				return
			}
			c.lastPeerID = streamID
			st = c.newStream(streamID, StateOpen)
			if endStream {
				st.State = StateHalfClosedRemote
			}
		} else {
			// Response headers for an unknown stream: ignore (already reset).
			return
		}
	} else if !c.IsServer {
		switch st.State {
		case StateReservedRemote:
			st.State = StateHalfClosedLocal
		}
		if endStream {
			c.peerClosed(st)
		}
	}
	if prio != nil {
		if prio.ParentID > maxTrackedStreamID {
			c.connError(ErrCodeEnhanceYourCalm, "stream id exceeds tracked range")
			return
		}
		c.Tree.Update(streamID, *prio)
	}
	if c.OnHeaders != nil {
		c.OnHeaders(st, fields, endStream)
	}
}

func (c *Core) handlePushPromise(f *pushPromiseFrame) {
	if c.IsServer {
		c.connError(ErrCodeProtocol, "client sent PUSH_PROMISE")
		return
	}
	if !c.local.EnablePush && !c.pushWasEnabled {
		// Push was never enabled on this connection; a compliant server
		// must not push. Treat as a connection error per RFC 7540 6.6. A
		// mid-connection disable instead refuses racing promises per
		// stream in finishPushPromise, after the header block has fed the
		// HPACK decoder (skipping the decode would desync the table).
		c.connError(ErrCodeProtocol, "PUSH_PROMISE with push disabled")
		return
	}
	if !f.EndHeaders {
		c.cont = &contState{
			streamID:   f.StreamID,
			isPush:     true,
			promisedID: f.PromisedID,
			buf:        append([]byte(nil), f.Block...),
		}
		return
	}
	c.finishPushPromise(f.StreamID, f.PromisedID, f.Block)
}

func (c *Core) finishPushPromise(parentID, promisedID uint32, block []byte) {
	fields, err := c.hdec.DecodeBlock(block)
	if err != nil {
		c.connError(ErrCodeCompression, err.Error())
		return
	}
	if !c.local.EnablePush {
		// Push disabled mid-connection: this promise raced our SETTINGS on
		// the wire. Refuse it per stream (the decode above kept the HPACK
		// table in sync).
		c.queueRST(promisedID, ErrCodeRefusedStream)
		return
	}
	parent := c.getStream(parentID)
	if parent == nil {
		// Promise on a closed stream: reset the promised stream.
		c.queueRST(promisedID, ErrCodeRefusedStream)
		return
	}
	if promisedID%2 != 0 {
		c.connError(ErrCodeProtocol, "odd promised stream id")
		return
	}
	if promisedID > maxTrackedStreamID {
		c.connError(ErrCodeEnhanceYourCalm, "stream id exceeds tracked range")
		return
	}
	st := c.newStream(promisedID, StateReservedRemote)
	st.IsPush = true
	st.PushParent = parentID
	c.PushesRecvd++
	if c.OnPushPromise != nil {
		c.OnPushPromise(parent, st, fields)
	}
}

//repolint:hotpath
func (c *Core) handleData(f *dataFrame) {
	st := c.getStream(f.StreamID)
	n := int64(f.Data.Len())
	// Connection-level accounting happens regardless of stream state.
	c.recvWindow -= n
	if c.recvWindow < 0 {
		c.connError(ErrCodeFlowControl, "connection flow control violated")
		return
	}
	// Replenish the connection window at half occupancy.
	if c.recvWindow < int64(c.local.InitialWindowSize)*2 {
		inc := int64(c.local.InitialWindowSize) * 4
		c.recvWindow += inc
		c.queueWindowUpdate(0, uint32(inc))
	}
	if st == nil {
		// Data for a reset/unknown stream: discard (count against conn
		// window only).
		return
	}
	st.recvWindow -= n
	if st.recvWindow < 0 {
		c.streamError(st.ID, ErrCodeFlowControl)
		return
	}
	if st.recvWindow < int64(c.local.InitialWindowSize)/2 {
		inc := int64(c.local.InitialWindowSize)
		st.recvWindow += inc
		c.queueWindowUpdate(st.ID, uint32(inc))
	}
	if f.EndStream {
		c.peerClosed(st)
	}
	if c.OnData != nil {
		c.OnData(st, f.Data, f.EndStream)
	}
}

func (c *Core) peerClosed(st *Stream) {
	switch st.State {
	case StateOpen:
		st.State = StateHalfClosedRemote
	case StateHalfClosedLocal:
		c.closeStream(st)
	}
}

//repolint:hotpath
func (c *Core) handleWindowUpdate(f *windowUpdateFrame) {
	if f.StreamID == 0 {
		c.sendWindow += int64(f.Increment)
		if c.sendWindow > maxWindow {
			c.connError(ErrCodeFlowControl, "connection window overflow")
			return
		}
	} else if st := c.getStream(f.StreamID); st != nil {
		st.sendWindow += int64(f.Increment)
		if st.sendWindow > maxWindow {
			c.streamError(st.ID, ErrCodeFlowControl)
			return
		}
	}
	c.wake()
}

func (c *Core) streamError(id uint32, code ErrCode) {
	c.queueRST(id, code)
	if st := c.getStream(id); st != nil {
		c.closeStream(st)
	}
}

// --- send path ---

// sendable reports whether st has DATA it is allowed to send now.
//
//repolint:hotpath
func (c *Core) sendable(st *Stream) bool {
	if st.State == StateClosed || st.State == StateReservedLocal || !st.headersSent {
		return false
	}
	if c.sendWindow <= 0 || st.sendWindow <= 0 {
		return false
	}
	if st.paused() {
		return false
	}
	if st.outLen > 0 {
		return true
	}
	// A bare END_STREAM still needs to be sent.
	return st.outClosed && !st.outDone()
}

func (st *Stream) outDone() bool {
	switch st.State {
	case StateHalfClosedLocal, StateClosed:
		return true
	}
	return false
}

// hasPending reports whether AppendWrite would append bytes.
//
//repolint:hotpath
func (c *Core) hasPending() bool {
	if c.ctrlPending() {
		return true
	}
	return c.Tree.Next(c.sendableFn) != nil
}

// arenaHeader encodes a frame header into the connection's header arena
// (see arenaRoom) and returns it as a capacity-capped subslice.
//
//repolint:hotpath
func (c *Core) arenaHeader(length int, t frameType, flags flags, streamID uint32) []byte {
	c.hdrArena = arenaRoom(c.hdrArena, frameHeaderLen)
	n := len(c.hdrArena)
	c.hdrArena = appendFrameHeader(c.hdrArena, length, t, flags, streamID)
	return c.hdrArena[n:len(c.hdrArena):len(c.hdrArena)]
}

// AppendWrite appends the wire bytes of the next frame to chunks and
// returns the extended list: a control frame as one pre-encoded slice, a
// DATA frame as its header (from the arena) followed by zero-copy
// subslices of the stream's queued body. It appends nothing when there is
// nothing to send. max, when positive, bounds the DATA payload. Control
// frames always precede DATA, so PUSH_PROMISE and HEADERS cannot be
// overtaken by body bytes.
//
// The returned slices are owned by the connection until the transport has
// consumed them; the chunks container itself may be reused by the caller.
//
//repolint:hotpath
func (c *Core) AppendWrite(chunks [][]byte, max int) [][]byte {
	if c.ctrlPending() {
		out := c.popCtrl()
		c.FramesSent++
		return append(chunks, out)
	}
	st := c.Tree.Next(c.sendableFn)
	if st == nil {
		return chunks
	}
	n := st.outLen
	if m := int(c.peer.MaxFrameSize); n > m {
		n = m
	}
	if max > 0 && n > max {
		n = max
	}
	if w := int(st.sendWindow); n > w {
		n = w
	}
	if w := int(c.sendWindow); n > w {
		n = w
	}
	// Respect a pause offset mid-buffer.
	if st.pauseAt >= 0 {
		remain := st.pauseAt - st.sentBody
		if n > remain {
			n = remain
		}
	}
	if n < 0 {
		n = 0
	}
	st.outLen -= n
	st.sentBody += n
	st.sendWindow -= int64(n)
	c.sendWindow -= int64(n)
	c.DataBytesSent += int64(n)
	c.Tree.Charge(st.ID, n)
	end := st.outClosed && st.outLen == 0 && !st.paused()
	var fl flags
	if end {
		fl |= FlagEndStream
	}
	chunks = append(chunks, c.arenaHeader(n, FrameData, fl, st.ID))
	for remain := n; remain > 0; {
		b := st.outChunks[st.outHead]
		take := len(b) - st.outOff
		if take > remain {
			take = remain
		}
		chunks = append(chunks, b[st.outOff:st.outOff+take:st.outOff+take])
		st.outOff += take
		remain -= take
		if st.outOff == len(b) {
			st.outChunks[st.outHead] = nil
			st.outHead++
			st.outOff = 0
		}
	}
	if st.outHead == len(st.outChunks) {
		st.outChunks = st.outChunks[:0]
		st.outHead = 0
	}
	c.FramesSent++
	if end {
		c.finishOut(st)
	}
	return chunks
}

// finishOut handles local send completion: state transitions plus
// releasing any interleave gates waiting on this stream.
func (c *Core) finishOut(st *Stream) {
	switch st.State {
	case StateOpen:
		st.State = StateHalfClosedLocal
	case StateHalfClosedRemote:
		c.closeStream(st)
	}
	if c.OnStreamSent != nil {
		c.OnStreamSent(st)
	}
	c.releaseGatesOn(st)
}
