// Package shard implements a versioned frame stream carrying
// index-addressed work units from a parent to a child process and
// serialized per-unit results back. No experiment driver uses it: every
// driver runs in process. Its only remaining consumer is bench/, which
// measures the encode and decode throughput of a result stream.
//
// A stream is a 5-byte header — the magic "RSH1" plus a version byte —
// followed by frames of (kind byte, uvarint payload length, payload).
// The parent sends one Job frame (job name, params, unit count), then
// one Index frame per assigned unit; the child answers with one Result
// frame per unit (uvarint unit index, then the job-specific payload).
// Both directions terminate with an End frame whose payload is the
// count of preceding frames, so truncation is always detected: EOF
// before End is an error, a count mismatch is an error, and any decode
// error is surfaced rather than papered over. Payload contents are
// encoded with the append-style primitives in payload.go and decoded
// with the sticky-error Reader, whose Close rejects trailing bytes —
// the other half of the no-silent-truncation contract.
package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the stream format version carried after the magic. A
// reader rejects any other version, so parent and worker binaries
// cannot silently exchange incompatible frames.
const Version = 1

var magic = [4]byte{'R', 'S', 'H', '1'}

// maxFramePayload bounds a single frame. Real payloads are the encoded
// result of one work unit (a few KB); the bound only exists so a
// corrupt length cannot demand an absurd read.
const maxFramePayload = 1 << 30

// FrameKind discriminates the stream's frame types.
type FrameKind byte

const (
	// FrameJob opens a parent-to-worker stream: job name, JSON params
	// and the fan-out's total unit count.
	FrameJob FrameKind = 0x01
	// FrameIndex assigns one unit index to the worker.
	FrameIndex FrameKind = 0x02
	// FrameResult returns one unit's result: uvarint unit index
	// followed by the job's encoded payload.
	FrameResult FrameKind = 0x03
	// FrameEnd terminates either direction; its payload is the uvarint
	// count of preceding frames.
	FrameEnd FrameKind = 0x04
)

func (k FrameKind) String() string {
	switch k {
	case FrameJob:
		return "job"
	case FrameIndex:
		return "index"
	case FrameResult:
		return "result"
	case FrameEnd:
		return "end"
	}
	return fmt.Sprintf("kind(0x%02x)", byte(k))
}

// StreamWriter writes one framed stream. The header goes out lazily
// with the first frame; End writes the terminating frame and flushes.
type StreamWriter struct {
	w      *bufio.Writer
	frames uint64
	began  bool
}

// NewStreamWriter returns a writer framing onto w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: bufio.NewWriter(w)}
}

func (sw *StreamWriter) header() error {
	if sw.began {
		return nil
	}
	sw.began = true
	if _, err := sw.w.Write(magic[:]); err != nil {
		return err
	}
	return sw.w.WriteByte(Version)
}

func (sw *StreamWriter) frame(kind FrameKind, payload []byte) error {
	if err := sw.header(); err != nil {
		return err
	}
	if err := sw.w.WriteByte(byte(kind)); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	if _, err := sw.w.Write(tmp[:n]); err != nil {
		return err
	}
	_, err := sw.w.Write(payload)
	return err
}

// Frame writes one non-End frame. The payload is copied into the
// buffer before return, so the caller may reuse it.
func (sw *StreamWriter) Frame(kind FrameKind, payload []byte) error {
	if kind == FrameEnd {
		return errors.New("shard: End terminates the stream; use the End method")
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("shard: frame payload %d exceeds limit", len(payload))
	}
	if err := sw.frame(kind, payload); err != nil {
		return err
	}
	sw.frames++
	return nil
}

// End writes the terminating frame — carrying the count of frames
// written before it — and flushes.
func (sw *StreamWriter) End() error {
	var payload [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(payload[:], sw.frames)
	if err := sw.frame(FrameEnd, payload[:n]); err != nil {
		return err
	}
	return sw.w.Flush()
}

// StreamReader reads one framed stream, validating the header, every
// frame bound, and the End frame's count.
type StreamReader struct {
	r       *bufio.Reader
	scratch bytes.Buffer
	frames  uint64
	began   bool
	done    bool
}

// NewStreamReader returns a reader deframing from r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: bufio.NewReader(r)}
}

// truncated maps io.EOF / io.ErrUnexpectedEOF mid-stream onto an
// explicit truncation error: EOF is only legal after the End frame.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errors.New("shard: stream truncated before end frame")
	}
	return err
}

// Next returns the next frame's kind and payload. The payload aliases
// an internal buffer valid only until the following Next call — copy
// it to retain it. A FrameEnd return means the stream completed with a
// verified frame count; calling Next again afterwards is an error, as
// is hitting EOF at any earlier point.
func (sr *StreamReader) Next() (FrameKind, []byte, error) {
	if sr.done {
		return 0, nil, errors.New("shard: read past end of stream")
	}
	if !sr.began {
		sr.began = true
		var h [len(magic) + 1]byte
		if _, err := io.ReadFull(sr.r, h[:]); err != nil {
			return 0, nil, truncated(err)
		}
		if [4]byte(h[:4]) != magic {
			return 0, nil, fmt.Errorf("shard: bad stream magic %q", h[:4])
		}
		if h[4] != Version {
			return 0, nil, fmt.Errorf("shard: unsupported stream version %d (want %d)", h[4], Version)
		}
	}
	kb, err := sr.r.ReadByte()
	if err != nil {
		return 0, nil, truncated(err)
	}
	kind := FrameKind(kb)
	plen, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return 0, nil, truncated(err)
	}
	if plen > maxFramePayload {
		return 0, nil, fmt.Errorf("shard: frame payload %d exceeds limit", plen)
	}
	// CopyN into the reusable buffer grows it only as bytes actually
	// arrive, so a corrupt length cannot force a huge allocation.
	sr.scratch.Reset()
	if _, err := io.CopyN(&sr.scratch, sr.r, int64(plen)); err != nil {
		return 0, nil, truncated(err)
	}
	payload := sr.scratch.Bytes()
	switch kind {
	case FrameJob, FrameIndex, FrameResult:
		sr.frames++
		return kind, payload, nil
	case FrameEnd:
		count, n := binary.Uvarint(payload)
		if n <= 0 || n != len(payload) {
			return 0, nil, errors.New("shard: malformed end frame")
		}
		if count != sr.frames {
			return 0, nil, fmt.Errorf("shard: stream truncated: end frame counts %d frames, read %d", count, sr.frames)
		}
		sr.done = true
		return FrameEnd, nil, nil
	}
	return 0, nil, fmt.Errorf("shard: unknown frame kind 0x%02x", kb)
}

// SplitResult splits a Result frame payload into the unit index and
// the job-specific result bytes.
func SplitResult(payload []byte) (index uint64, rest []byte, err error) {
	index, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, errors.New("shard: result frame missing unit index")
	}
	return index, payload[n:], nil
}
