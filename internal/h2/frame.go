// Package h2 is a from-scratch HTTP/2 (RFC 7540) implementation built for
// the Server Push testbed: binary framing, HPACK header compression (via
// internal/hpack), stream multiplexing, flow control, the RFC 7540
// priority tree, and — the paper's mechanism — pluggable server stream
// schedulers, including the default h2o-like scheduler (a pushed stream is
// a child of the stream that triggered it) and the interleaving scheduler
// that pauses the parent response after a byte offset to push critical
// resources.
//
// The protocol core is transport-agnostic: it runs both inside the
// discrete-event simulator (internal/netem) and over real net.Conn
// transports (see real.go), which is how the frame codec and HPACK are
// cross-validated.
package h2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// frameType identifies an RFC 7540 frame type.
type frameType uint8

// RFC 7540 Section 6 frame types.
const (
	FrameData         frameType = 0x0
	FrameHeaders      frameType = 0x1
	FramePriority     frameType = 0x2
	FrameRSTStream    frameType = 0x3
	FrameSettings     frameType = 0x4
	FramePushPromise  frameType = 0x5
	FramePing         frameType = 0x6
	FrameGoAway       frameType = 0x7
	FrameWindowUpdate frameType = 0x8
	FrameContinuation frameType = 0x9
)

var frameNames = [...]string{
	FrameData: "DATA", FrameHeaders: "HEADERS", FramePriority: "PRIORITY",
	FrameRSTStream: "RST_STREAM", FrameSettings: "SETTINGS",
	FramePushPromise: "PUSH_PROMISE", FramePing: "PING", FrameGoAway: "GOAWAY",
	FrameWindowUpdate: "WINDOW_UPDATE", FrameContinuation: "CONTINUATION",
}

func (t frameType) String() string {
	if int(t) < len(frameNames) {
		return frameNames[t]
	}
	return "UNKNOWN(0x" + strconv.FormatUint(uint64(t), 16) + ")"
}

// flags is the 8-bit frame flags field.
type flags uint8

// Frame flags; meanings depend on frame type.
const (
	FlagEndStream  flags = 0x1 // DATA, HEADERS
	FlagAck        flags = 0x1 // SETTINGS, PING
	FlagEndHeaders flags = 0x4 // HEADERS, PUSH_PROMISE, CONTINUATION
	FlagPadded     flags = 0x8 // DATA, HEADERS, PUSH_PROMISE
	FlagPriority   flags = 0x20
)

// has reports whether all bits of f2 are set.
func (f flags) has(f2 flags) bool { return f&f2 == f2 }

// ErrCode is an RFC 7540 Section 7 error code.
type ErrCode uint32

// Error codes.
const (
	ErrCodeNo                 ErrCode = 0x0
	ErrCodeProtocol           ErrCode = 0x1
	ErrCodeInternal           ErrCode = 0x2
	ErrCodeFlowControl        ErrCode = 0x3
	ErrCodeSettingsTimeout    ErrCode = 0x4
	ErrCodeStreamClosed       ErrCode = 0x5
	ErrCodeFrameSize          ErrCode = 0x6
	ErrCodeRefusedStream      ErrCode = 0x7
	ErrCodeCancel             ErrCode = 0x8
	ErrCodeCompression        ErrCode = 0x9
	ErrCodeConnect            ErrCode = 0xa
	ErrCodeEnhanceYourCalm    ErrCode = 0xb
	ErrCodeInadequateSecurity ErrCode = 0xc
	ErrCodeHTTP11Required     ErrCode = 0xd
)

// settingID identifies a SETTINGS parameter.
type settingID uint16

// RFC 7540 Section 6.5.2 settings.
const (
	SettingHeaderTableSize      settingID = 0x1
	SettingEnablePush           settingID = 0x2
	SettingMaxConcurrentStreams settingID = 0x3
	SettingInitialWindowSize    settingID = 0x4
	SettingMaxFrameSize         settingID = 0x5
	SettingMaxHeaderListSize    settingID = 0x6
)

// setting is one SETTINGS parameter.
type setting struct {
	ID  settingID
	Val uint32
}

// Protocol constants.
const (
	frameHeaderLen       = 9
	DefaultMaxFrameSize  = 16384
	DefaultInitialWindow = 65535
	maxWindow            = 1<<31 - 1
	// ClientPreface is the fixed connection preface sent by clients.
	ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"
)

// PriorityParam is the stream dependency triple carried by HEADERS and
// PRIORITY frames. Weight is the on-wire value; effective weight is
// Weight+1 (1..256).
type PriorityParam struct {
	ParentID  uint32
	Exclusive bool
	Weight    uint8
}

// IsZero reports whether the parameter carries no information.
func (p PriorityParam) IsZero() bool { return p == PriorityParam{} }

// Frame is a decoded HTTP/2 frame.
type Frame interface {
	Kind() frameType
	Stream() uint32
	// append serializes the frame (header + payload) onto dst.
	append(dst []byte) []byte
}

func appendFrameHeader(dst []byte, length int, t frameType, flags flags, streamID uint32) []byte {
	return append(dst,
		byte(length>>16), byte(length>>8), byte(length),
		byte(t), byte(flags),
		byte(streamID>>24), byte(streamID>>16), byte(streamID>>8), byte(streamID))
}

// appendFrame serializes f onto dst.
func appendFrame(dst []byte, f Frame) []byte { return f.append(dst) }

// DataView is the payload of one DATA frame, padding excluded: Len bytes
// held as zero or more parts in stream order. A received payload is
// never reassembled — a 16 KB frame arrives as a dozen MSS-sized
// segments, and most consumers only count its bytes — so each part is a
// subslice of a chunk the transport fed the FrameReader. The parts are
// read-only and valid only during the delivery (until the reader's next
// Next or Feed); a consumer that keeps bytes copies them out with
// AppendTo.
type DataView struct {
	n     int
	parts [][]byte // in stream order; none is empty
}

// Len is the payload length in bytes.
func (v DataView) Len() int { return v.n }

// AppendTo appends a copy of the payload to dst.
func (v DataView) AppendTo(dst []byte) []byte {
	for _, p := range v.parts {
		dst = append(dst, p...)
	}
	return dst
}

// dataFrame carries request/response bodies.
type dataFrame struct {
	StreamID  uint32
	Data      DataView
	EndStream bool
}

func (f *dataFrame) Kind() frameType { return FrameData }
func (f *dataFrame) Stream() uint32  { return f.StreamID }
func (f *dataFrame) append(dst []byte) []byte {
	var fl flags
	if f.EndStream {
		fl |= FlagEndStream
	}
	dst = appendFrameHeader(dst, f.Data.Len(), FrameData, fl, f.StreamID)
	return f.Data.AppendTo(dst)
}

// headersFrame opens a stream (requests) or carries a response header
// block. The block must be a complete HPACK fragment; blocks larger than
// the max frame size are split into CONTINUATIONs by the sender.
type headersFrame struct {
	StreamID    uint32
	Block       []byte
	EndStream   bool
	EndHeaders  bool
	HasPriority bool
	Priority    PriorityParam
}

func (f *headersFrame) Kind() frameType { return FrameHeaders }
func (f *headersFrame) Stream() uint32  { return f.StreamID }
func (f *headersFrame) append(dst []byte) []byte {
	var fl flags
	if f.EndStream {
		fl |= FlagEndStream
	}
	if f.EndHeaders {
		fl |= FlagEndHeaders
	}
	length := len(f.Block)
	if f.HasPriority {
		fl |= FlagPriority
		length += 5
	}
	dst = appendFrameHeader(dst, length, FrameHeaders, fl, f.StreamID)
	if f.HasPriority {
		dst = appendPriorityParam(dst, f.Priority)
	}
	return append(dst, f.Block...)
}

func appendPriorityParam(dst []byte, p PriorityParam) []byte {
	v := p.ParentID & 0x7fffffff
	if p.Exclusive {
		v |= 1 << 31
	}
	var b [5]byte
	binary.BigEndian.PutUint32(b[:4], v)
	b[4] = p.Weight
	return append(dst, b[:]...)
}

func parsePriorityParam(p []byte) PriorityParam {
	v := binary.BigEndian.Uint32(p[:4])
	return PriorityParam{
		ParentID:  v & 0x7fffffff,
		Exclusive: v&(1<<31) != 0,
		Weight:    p[4],
	}
}

// priorityFrame reprioritizes a stream.
type priorityFrame struct {
	StreamID uint32
	Priority PriorityParam
}

func (f *priorityFrame) Kind() frameType { return FramePriority }
func (f *priorityFrame) Stream() uint32  { return f.StreamID }
func (f *priorityFrame) append(dst []byte) []byte {
	dst = appendFrameHeader(dst, 5, FramePriority, 0, f.StreamID)
	return appendPriorityParam(dst, f.Priority)
}

// rstStreamFrame abruptly terminates a stream (e.g. a client cancelling an
// unwanted push).
type rstStreamFrame struct {
	StreamID uint32
	Code     ErrCode
}

func (f *rstStreamFrame) Kind() frameType { return FrameRSTStream }
func (f *rstStreamFrame) Stream() uint32  { return f.StreamID }
func (f *rstStreamFrame) append(dst []byte) []byte {
	dst = appendFrameHeader(dst, 4, FrameRSTStream, 0, f.StreamID)
	return binary.BigEndian.AppendUint32(dst, uint32(f.Code))
}

// settingsFrame exchanges connection configuration. SETTINGS_ENABLE_PUSH=0
// is how a client disables Server Push entirely (the paper's "no push"
// baseline).
type settingsFrame struct {
	Ack    bool
	Params []setting
}

func (f *settingsFrame) Kind() frameType { return FrameSettings }
func (f *settingsFrame) Stream() uint32  { return 0 }
func (f *settingsFrame) append(dst []byte) []byte {
	var fl flags
	if f.Ack {
		fl |= FlagAck
	}
	dst = appendFrameHeader(dst, 6*len(f.Params), FrameSettings, fl, 0)
	for _, s := range f.Params {
		dst = binary.BigEndian.AppendUint16(dst, uint16(s.ID))
		dst = binary.BigEndian.AppendUint32(dst, s.Val)
	}
	return dst
}

// value returns the last value for id in the frame.
func (f *settingsFrame) value(id settingID) (uint32, bool) {
	var v uint32
	found := false
	for _, s := range f.Params {
		if s.ID == id {
			v, found = s.Val, true
		}
	}
	return v, found
}

// pushPromiseFrame announces a server-initiated stream: the promised
// stream ID plus the synthetic request header block the push answers.
type pushPromiseFrame struct {
	StreamID   uint32 // associated (parent) stream
	PromisedID uint32
	Block      []byte
	EndHeaders bool
}

func (f *pushPromiseFrame) Kind() frameType { return FramePushPromise }
func (f *pushPromiseFrame) Stream() uint32  { return f.StreamID }
func (f *pushPromiseFrame) append(dst []byte) []byte {
	var fl flags
	if f.EndHeaders {
		fl |= FlagEndHeaders
	}
	dst = appendFrameHeader(dst, 4+len(f.Block), FramePushPromise, fl, f.StreamID)
	dst = binary.BigEndian.AppendUint32(dst, f.PromisedID&0x7fffffff)
	return append(dst, f.Block...)
}

// pingFrame measures liveness/RTT.
type pingFrame struct {
	Ack  bool
	Data [8]byte
}

func (f *pingFrame) Kind() frameType { return FramePing }
func (f *pingFrame) Stream() uint32  { return 0 }
func (f *pingFrame) append(dst []byte) []byte {
	var fl flags
	if f.Ack {
		fl |= FlagAck
	}
	dst = appendFrameHeader(dst, 8, FramePing, fl, 0)
	return append(dst, f.Data[:]...)
}

// goAwayFrame initiates connection shutdown.
type goAwayFrame struct {
	LastStreamID uint32
	Code         ErrCode
	Debug        []byte
}

func (f *goAwayFrame) Kind() frameType { return FrameGoAway }
func (f *goAwayFrame) Stream() uint32  { return 0 }
func (f *goAwayFrame) append(dst []byte) []byte {
	dst = appendFrameHeader(dst, 8+len(f.Debug), FrameGoAway, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, f.LastStreamID&0x7fffffff)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Code))
	return append(dst, f.Debug...)
}

// windowUpdateFrame grants flow-control credit (stream 0 = connection).
type windowUpdateFrame struct {
	StreamID  uint32
	Increment uint32
}

func (f *windowUpdateFrame) Kind() frameType { return FrameWindowUpdate }
func (f *windowUpdateFrame) Stream() uint32  { return f.StreamID }
func (f *windowUpdateFrame) append(dst []byte) []byte {
	dst = appendFrameHeader(dst, 4, FrameWindowUpdate, 0, f.StreamID)
	return binary.BigEndian.AppendUint32(dst, f.Increment&0x7fffffff)
}

// continuationFrame carries the remainder of an oversized header block.
type continuationFrame struct {
	StreamID   uint32
	Block      []byte
	EndHeaders bool
}

func (f *continuationFrame) Kind() frameType { return FrameContinuation }
func (f *continuationFrame) Stream() uint32  { return f.StreamID }
func (f *continuationFrame) append(dst []byte) []byte {
	var fl flags
	if f.EndHeaders {
		fl |= FlagEndHeaders
	}
	dst = appendFrameHeader(dst, len(f.Block), FrameContinuation, fl, f.StreamID)
	return append(dst, f.Block...)
}

// ConnError is a connection-level protocol error that must tear the
// connection down with GOAWAY.
type ConnError struct {
	Code ErrCode
	Msg  string
}

func (e ConnError) Error() string { return fmt.Sprintf("h2: connection error %d: %s", e.Code, e.Msg) }

var errFrameTooLarge = errors.New("h2: frame exceeds max frame size")

// emptyPayload stands in for zero-length frame payloads so decoded frames
// carry a non-nil empty slice, matching the encoder's round trip.
var emptyPayload = []byte{}

// FrameReader incrementally decodes frames from a byte stream.
//
// Feed is zero-copy: the reader retains the given slice until its bytes
// have been consumed, so callers transfer ownership and must not mutate
// fed chunks. Next parses directly from the chunk list. A DATA payload
// is never copied: it is returned as a DataView whose parts are
// subslices of the chunks it spans. Any other payload that lies within
// one chunk is returned as a subslice of it, and one spanning chunks is
// assembled into a reused scratch buffer. Consequently a returned Frame
// (and any payload slice or view it carries) is read-only and only valid
// until the next call to Next or Feed — consumers must copy what they
// retain.
//
//repolint:pooled
type FrameReader struct {
	chunks   [][]byte // fed transport chunks; chunks[head][off:] is next
	head     int
	off      int
	buffered int

	hdr     [frameHeaderLen]byte //repolint:keep scratch header bytes, rewritten by peekHeader
	scratch []byte               //repolint:keep reassembly buffer for non-DATA payloads spanning chunks; rewritten per use
	parts   [][]byte             // backing of the last DATA frame's view

	// Reused frame structs, one per type: the returned-frame validity
	// contract above (valid until the next Next/Feed) means no caller may
	// retain one, so each parse fills the previous instance in place
	// instead of allocating.
	data     dataFrame         //repolint:keep reused frame struct, filled in place per parse
	headers  headersFrame      //repolint:keep reused frame struct, filled in place per parse
	prio     priorityFrame     //repolint:keep reused frame struct, filled in place per parse
	rst      rstStreamFrame    //repolint:keep reused frame struct, filled in place per parse
	settings settingsFrame     //repolint:keep reused frame struct, filled in place per parse
	pp       pushPromiseFrame  //repolint:keep reused frame struct, filled in place per parse
	ping     pingFrame         //repolint:keep reused frame struct, filled in place per parse
	goaway   goAwayFrame       //repolint:keep reused frame struct, filled in place per parse
	wu       windowUpdateFrame //repolint:keep reused frame struct, filled in place per parse
	contf    continuationFrame //repolint:keep reused frame struct, filled in place per parse
}

// Reset discards all buffered bytes and re-arms the reader for a new
// connection, keeping its chunk list, scratch buffer and frame structs.
func (r *FrameReader) Reset() {
	for i := range r.chunks {
		r.chunks[i] = nil
	}
	r.chunks = r.chunks[:0]
	r.head, r.off, r.buffered = 0, 0, 0
	clear(r.parts[:cap(r.parts)]) // a shorter view since may have left longer ones' tails
	r.parts = r.parts[:0]
}

// Feed hands transport bytes to the reader. The slice is retained (not
// copied) until consumed; see the type comment for the ownership rule.
//
//repolint:owns zero-copy: the reader aliases the chunk until consumed
//repolint:hotpath
func (r *FrameReader) Feed(b []byte) {
	if len(b) == 0 {
		return
	}
	r.chunks = append(r.chunks, b)
	r.buffered += len(b)
}

// peekHeader copies the next frameHeaderLen bytes into r.hdr without
// consuming them. The caller guarantees buffered >= frameHeaderLen.
//
//repolint:hotpath
func (r *FrameReader) peekHeader() {
	i, off, n := r.head, r.off, 0
	for n < frameHeaderLen {
		n += copy(r.hdr[n:], r.chunks[i][off:])
		i++
		off = 0
	}
}

// consume advances past n buffered bytes. The caller guarantees
// buffered >= n.
//
//repolint:hotpath
func (r *FrameReader) consume(n int) {
	r.buffered -= n
	for n > 0 {
		avail := len(r.chunks[r.head]) - r.off
		if n < avail {
			r.off += n
			break
		}
		n -= avail
		r.chunks[r.head] = nil
		r.head++
		r.off = 0
	}
	switch {
	case r.head == len(r.chunks):
		r.chunks = r.chunks[:0]
		r.head = 0
	case r.head > 64 && 2*r.head >= len(r.chunks):
		m := copy(r.chunks, r.chunks[r.head:])
		for i := m; i < len(r.chunks); i++ {
			r.chunks[i] = nil
		}
		r.chunks = r.chunks[:m]
		r.head = 0
	}
}

// take consumes n bytes and returns them contiguously: a zero-copy
// subslice when they lie within one chunk, otherwise the reused scratch
// buffer. The caller guarantees buffered >= n.
//
//repolint:hotpath
func (r *FrameReader) take(n int) []byte {
	if n == 0 {
		return emptyPayload
	}
	if c := r.chunks[r.head]; len(c)-r.off >= n {
		p := c[r.off : r.off+n : r.off+n]
		r.consume(n)
		return p
	}
	if cap(r.scratch) < n {
		r.scratch = make([]byte, n)
	}
	buf := r.scratch[:n]
	filled := 0
	for filled < n {
		c := r.chunks[r.head]
		m := copy(buf[filled:], c[r.off:])
		filled += m
		r.consume(m)
	}
	return buf
}

// takeParts consumes n bytes and returns them where they lie: one
// subslice per chunk they span, in the reader's reused parts list. The
// caller guarantees buffered >= n.
//
//repolint:hotpath
func (r *FrameReader) takeParts(n int) [][]byte {
	parts := r.parts[:0]
	i, off := r.head, r.off
	for left := n; left > 0; i, off = i+1, 0 {
		c := r.chunks[i][off:]
		if len(c) > left {
			c = c[:left]
		}
		parts = append(parts, c[:len(c):len(c)])
		left -= len(c)
	}
	r.parts = parts
	r.consume(n)
	return parts
}

// Next decodes the next complete frame, returning nil when more bytes are
// needed. Frames of unknown type are skipped, per RFC 7540 Section 4.1.
// The returned frame is valid until the next call to Next or Feed.
//
//repolint:hotpath
func (r *FrameReader) Next() (Frame, error) {
	for {
		if r.buffered < frameHeaderLen {
			return nil, nil
		}
		r.peekHeader()
		length := int(r.hdr[0])<<16 | int(r.hdr[1])<<8 | int(r.hdr[2])
		// Our advertised SETTINGS_MAX_FRAME_SIZE is always the default.
		if length > DefaultMaxFrameSize {
			return nil, ConnError{ErrCodeFrameSize, errFrameTooLarge.Error()}
		}
		if r.buffered < frameHeaderLen+length {
			return nil, nil
		}
		typ := frameType(r.hdr[3])
		flags := flags(r.hdr[4])
		streamID := binary.BigEndian.Uint32(r.hdr[5:9]) & 0x7fffffff
		r.consume(frameHeaderLen)
		if typ == FrameData {
			// Hot path: the payload stays where the transport put it and
			// the reader's dataFrame is reused.
			return r.dataFrame(streamID, flags, r.takeParts(length), length)
		}
		f, err := r.parseInto(typ, flags, streamID, r.take(length))
		if err != nil {
			return nil, err
		}
		if f == nil {
			continue // unknown frame type: skip
		}
		return f, nil
	}
}

// dataFrame validates a DATA frame whose n payload bytes are parts
// (none empty) and fills the reader's dataFrame with a view of them,
// padding stripped.
func (r *FrameReader) dataFrame(streamID uint32, flags flags, parts [][]byte, n int) (Frame, error) {
	if streamID == 0 {
		return nil, ConnError{ErrCodeProtocol, "DATA on stream 0"}
	}
	if flags.has(FlagPadded) {
		if n < 1 || int(parts[0][0]) >= n {
			return nil, ConnError{ErrCodeProtocol, "bad DATA padding"}
		}
		pad := int(parts[0][0])
		n -= 1 + pad
		if parts[0] = parts[0][1:]; len(parts[0]) == 0 {
			parts = parts[1:]
		}
		for pad > 0 {
			last := parts[len(parts)-1]
			if pad < len(last) {
				parts[len(parts)-1] = last[:len(last)-pad]
				break
			}
			pad -= len(last)
			parts = parts[:len(parts)-1]
		}
	}
	r.data = dataFrame{StreamID: streamID, Data: DataView{n: n, parts: parts}, EndStream: flags.has(FlagEndStream)}
	return &r.data, nil
}

// parseInto decodes one frame into the reader's reused frame structs;
// the result is valid until the reader parses its next frame.
//
//repolint:owns decoded frames alias p until the next Next/Feed
func (r *FrameReader) parseInto(typ frameType, flags flags, streamID uint32, p []byte) (Frame, error) {
	switch typ {
	case FrameData:
		r.parts = r.parts[:0]
		if len(p) > 0 {
			r.parts = append(r.parts, p)
		}
		return r.dataFrame(streamID, flags, r.parts, len(p))

	case FrameHeaders:
		if streamID == 0 {
			return nil, ConnError{ErrCodeProtocol, "HEADERS on stream 0"}
		}
		f := &r.headers
		*f = headersFrame{
			StreamID:   streamID,
			EndStream:  flags.has(FlagEndStream),
			EndHeaders: flags.has(FlagEndHeaders),
		}
		if flags.has(FlagPadded) {
			if len(p) < 1 || int(p[0]) >= len(p) {
				return nil, ConnError{ErrCodeProtocol, "bad HEADERS padding"}
			}
			p = p[1 : len(p)-int(p[0])]
		}
		if flags.has(FlagPriority) {
			if len(p) < 5 {
				return nil, ConnError{ErrCodeFrameSize, "short HEADERS priority"}
			}
			f.HasPriority = true
			f.Priority = parsePriorityParam(p)
			p = p[5:]
		}
		f.Block = p
		return f, nil

	case FramePriority:
		if len(p) != 5 {
			return nil, ConnError{ErrCodeFrameSize, "PRIORITY length != 5"}
		}
		if streamID == 0 {
			return nil, ConnError{ErrCodeProtocol, "PRIORITY on stream 0"}
		}
		r.prio = priorityFrame{StreamID: streamID, Priority: parsePriorityParam(p)}
		return &r.prio, nil

	case FrameRSTStream:
		if len(p) != 4 {
			return nil, ConnError{ErrCodeFrameSize, "RST_STREAM length != 4"}
		}
		if streamID == 0 {
			return nil, ConnError{ErrCodeProtocol, "RST_STREAM on stream 0"}
		}
		r.rst = rstStreamFrame{StreamID: streamID, Code: ErrCode(binary.BigEndian.Uint32(p))}
		return &r.rst, nil

	case FrameSettings:
		if streamID != 0 {
			return nil, ConnError{ErrCodeProtocol, "SETTINGS on nonzero stream"}
		}
		f := &r.settings
		f.Ack = flags.has(FlagAck)
		f.Params = f.Params[:0]
		if f.Ack {
			if len(p) != 0 {
				return nil, ConnError{ErrCodeFrameSize, "SETTINGS ack with payload"}
			}
			return f, nil
		}
		if len(p)%6 != 0 {
			return nil, ConnError{ErrCodeFrameSize, "SETTINGS length not multiple of 6"}
		}
		for len(p) > 0 {
			f.Params = append(f.Params, setting{
				ID:  settingID(binary.BigEndian.Uint16(p[:2])),
				Val: binary.BigEndian.Uint32(p[2:6]),
			})
			p = p[6:]
		}
		return f, nil

	case FramePushPromise:
		if streamID == 0 {
			return nil, ConnError{ErrCodeProtocol, "PUSH_PROMISE on stream 0"}
		}
		if flags.has(FlagPadded) {
			if len(p) < 1 || int(p[0]) >= len(p) {
				return nil, ConnError{ErrCodeProtocol, "bad PUSH_PROMISE padding"}
			}
			p = p[1 : len(p)-int(p[0])]
		}
		if len(p) < 4 {
			return nil, ConnError{ErrCodeFrameSize, "short PUSH_PROMISE"}
		}
		r.pp = pushPromiseFrame{
			StreamID:   streamID,
			PromisedID: binary.BigEndian.Uint32(p[:4]) & 0x7fffffff,
			Block:      p[4:],
			EndHeaders: flags.has(FlagEndHeaders),
		}
		return &r.pp, nil

	case FramePing:
		if len(p) != 8 {
			return nil, ConnError{ErrCodeFrameSize, "PING length != 8"}
		}
		if streamID != 0 {
			return nil, ConnError{ErrCodeProtocol, "PING on nonzero stream"}
		}
		f := &r.ping
		f.Ack = flags.has(FlagAck)
		copy(f.Data[:], p)
		return f, nil

	case FrameGoAway:
		if len(p) < 8 {
			return nil, ConnError{ErrCodeFrameSize, "short GOAWAY"}
		}
		if streamID != 0 {
			return nil, ConnError{ErrCodeProtocol, "GOAWAY on nonzero stream"}
		}
		r.goaway = goAwayFrame{
			LastStreamID: binary.BigEndian.Uint32(p[:4]) & 0x7fffffff,
			Code:         ErrCode(binary.BigEndian.Uint32(p[4:8])),
			Debug:        p[8:],
		}
		return &r.goaway, nil

	case FrameWindowUpdate:
		if len(p) != 4 {
			return nil, ConnError{ErrCodeFrameSize, "WINDOW_UPDATE length != 4"}
		}
		inc := binary.BigEndian.Uint32(p) & 0x7fffffff
		if inc == 0 {
			return nil, ConnError{ErrCodeProtocol, "WINDOW_UPDATE increment 0"}
		}
		r.wu = windowUpdateFrame{StreamID: streamID, Increment: inc}
		return &r.wu, nil

	case FrameContinuation:
		if streamID == 0 {
			return nil, ConnError{ErrCodeProtocol, "CONTINUATION on stream 0"}
		}
		r.contf = continuationFrame{StreamID: streamID, Block: p, EndHeaders: flags.has(FlagEndHeaders)}
		return &r.contf, nil

	default:
		// Unknown frame types must be ignored (RFC 7540 Section 4.1).
		return nil, nil
	}
}
