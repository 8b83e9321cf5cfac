package h2

import (
	"fmt"
	"strings"
	"testing"
)

// capturedExchange returns the server-to-client bytes of a real
// exchange — SETTINGS both ways, two requests, a push, response HEADERS
// and DATA frames larger than any one feed below, WINDOW_UPDATEs — with
// padded DATA frames (which this stack's sender never emits) spliced on
// the end: padding of zero, padding filling the whole frame, and
// padding around a payload.
func capturedExchange(t *testing.T) []byte {
	t.Helper()
	body := make([]byte, 5000)
	for i := range body {
		body[i] = byte(i * 7)
	}
	srv := NewServer(DefaultSettings(), func(sw *ServerStream, req Request) {
		if req.Path == "/" {
			if p := sw.Push(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/style.css"}); p != nil {
				p.Respond(200, "text/css", body[:700])
			}
		}
		sw.Respond(200, "text/html", body)
	})
	cl := NewClient(DefaultSettings())
	srv.Core.Start()
	cl.Core.Start()
	done := 0
	for _, path := range []string{"/", "/other"} {
		cl.Request(Request{Method: "GET", Scheme: "https", Authority: "a", Path: path},
			RequestOpts{OnComplete: func(int) { done++ }})
	}
	var wire []byte
	for moved := true; moved; {
		moved = false
		for _, c := range cl.Core.AppendWrite(nil, 0) {
			moved = true
			srv.Core.Recv(c)
		}
		for _, c := range srv.Core.AppendWrite(nil, 0) {
			moved = true
			wire = append(wire, c...)
			cl.Core.Recv(append([]byte(nil), c...))
		}
	}
	if done != 2 {
		t.Fatalf("exchange completed %d of 2 requests", done)
	}
	padded := func(streamID uint32, fl flags, pad byte, data string) {
		wire = appendFrameHeader(wire, 1+len(data)+int(pad), FrameData, fl|FlagPadded, streamID)
		wire = append(wire, pad)
		wire = append(wire, data...)
		wire = append(wire, make([]byte, pad)...)
	}
	padded(1, 0, 0, "no padding at all")
	padded(1, 0, 9, "")
	padded(3, FlagEndStream, 200, "payload between a pad length and 200 bytes of padding")
	return wire
}

// transcript feeds wire to a fresh reader in the given pieces and
// renders every frame as it is produced (frames are only valid until
// the next Next or Feed): DATA as stream, flags and the payload bytes
// its view yields, everything else field by field.
func transcript(t *testing.T, pieces ...[]byte) string {
	t.Helper()
	var r FrameReader
	var sb strings.Builder
	for _, p := range pieces {
		r.Feed(p)
		for {
			f, err := r.Next()
			if err != nil {
				fmt.Fprintf(&sb, "error %v\n", err)
				return sb.String()
			}
			if f == nil {
				break
			}
			if df, ok := f.(*dataFrame); ok {
				n := 0
				for _, part := range df.Data.parts {
					if len(part) == 0 {
						t.Fatal("DATA view holds an empty part")
					}
					n += len(part)
				}
				if n != df.Data.Len() {
					t.Fatalf("DATA view of %d bytes has parts of %d", df.Data.Len(), n)
				}
				fmt.Fprintf(&sb, "DATA stream=%d end=%v %x\n", df.StreamID, df.EndStream, df.Data.AppendTo(nil))
				continue
			}
			fmt.Fprintf(&sb, "%v %+v\n", f.Kind(), f)
		}
	}
	if r.buffered != 0 {
		fmt.Fprintf(&sb, "%d bytes left over\n", r.buffered)
	}
	return sb.String()
}

// TestFrameReaderSplitInvariance: however the transport cuts the byte
// stream — in two at every offset, or into equal segments of every small
// size and of an MSS, so payloads span many chunks — the reader yields
// the same frames with the same payload bytes as when fed the stream
// whole. DATA payloads are views of the fed pieces, never reassembled,
// so this is what pins that a view is cut, padding-stripped and ordered
// right wherever the boundaries fall.
func TestFrameReaderSplitInvariance(t *testing.T) {
	wire := capturedExchange(t)
	want := transcript(t, wire)
	for _, probe := range []string{
		"HEADERS", "PUSH_PROMISE", "SETTINGS", "WINDOW_UPDATE",
		fmt.Sprintf("DATA stream=1 end=false %x\n", "no padding at all"),
		"DATA stream=1 end=false \n", // nine bytes of padding and nothing else
		fmt.Sprintf("DATA stream=3 end=true %x\n", "payload between a pad length and 200 bytes of padding"),
	} {
		if !strings.Contains(want, probe) {
			t.Fatalf("captured exchange has no %q:\n%s", probe, want)
		}
	}
	if strings.Contains(want, "error") || strings.Contains(want, "left over") {
		t.Fatalf("captured exchange does not parse cleanly:\n%s", want)
	}
	for k := 0; k <= len(wire); k++ {
		if got := transcript(t, wire[:k], wire[k:]); got != want {
			t.Fatalf("split at byte %d of %d diverged from the whole feed:\n got %s\nwant %s", k, len(wire), got, want)
		}
	}
	sizes := []int{1460}
	for c := 1; c <= 40; c++ {
		sizes = append(sizes, c)
	}
	for _, c := range sizes {
		var pieces [][]byte
		for off := 0; off < len(wire); off += c {
			pieces = append(pieces, wire[off:min(off+c, len(wire))])
		}
		if got := transcript(t, pieces...); got != want {
			t.Fatalf("fed in %d-byte segments diverged from the whole feed:\n got %s\nwant %s", c, got, want)
		}
	}
}

// TestFrameReaderBadPaddingSplit: a pad length that leaves no room for
// itself is the same connection error wherever the frame is cut.
func TestFrameReaderBadPaddingSplit(t *testing.T) {
	wire := appendFrameHeader(nil, 3, FrameData, FlagPadded, 1)
	wire = append(wire, 3, 'x', 'y')
	want := transcript(t, wire)
	if !strings.Contains(want, "bad DATA padding") {
		t.Fatalf("bad padding accepted: %s", want)
	}
	for k := 0; k <= len(wire); k++ {
		if got := transcript(t, wire[:k], wire[k:]); got != want {
			t.Fatalf("split at %d: got %q want %q", k, got, want)
		}
	}
}
