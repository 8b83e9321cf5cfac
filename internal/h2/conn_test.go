package h2

import (
	"testing"

	"repro/internal/hpack"
)

// feed drives a core directly with encoded frames (no transport).
func feed(c *Core, frames ...Frame) {
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	c.Recv(wire)
}

func clientPrefaceBytes() []byte { return []byte(ClientPreface) }

func TestServerRejectsBadPreface(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	c.Recv([]byte("GET / HTTP/1.1\r\n\r\n"))
	if gotErr.Code != ErrCodeProtocol {
		t.Fatalf("bad preface not rejected: %+v", gotErr)
	}
}

func TestServerAcceptsSplitPreface(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	errSeen := false
	c.OnConnError = func(ConnError) { errSeen = true }
	p := clientPrefaceBytes()
	c.Recv(p[:7])
	c.Recv(p[7:13])
	c.Recv(p[13:])
	feed(c, &SettingsFrame{})
	if errSeen {
		t.Fatal("split preface rejected")
	}
	if !c.settingsRecv {
		t.Fatal("settings not processed after split preface")
	}
}

func TestPingAnsweredWithAck(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	c.Start()
	c.Recv(clientPrefaceBytes())
	feed(c, &PingFrame{Data: [8]byte{1, 2, 3}})
	// Drain control frames looking for the PING ack.
	found := false
	for {
		b := c.PopWrite(0)
		if b == nil {
			break
		}
		var r FrameReader
		r.Feed(b)
		f, _ := r.Next()
		if pf, ok := f.(*PingFrame); ok && pf.Ack && pf.Data[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("PING not acked")
	}
}

func TestSettingsAcked(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	c.Start()
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{Params: []Setting{{SettingEnablePush, 0}}})
	if c.PeerSettings().EnablePush {
		t.Fatal("ENABLE_PUSH=0 not applied")
	}
	ackSeen := false
	for {
		b := c.PopWrite(0)
		if b == nil {
			break
		}
		var r FrameReader
		r.Feed(b)
		f, _ := r.Next()
		if sf, ok := f.(*SettingsFrame); ok && sf.Ack {
			ackSeen = true
		}
	}
	if !ackSeen {
		t.Fatal("SETTINGS not acked")
	}
}

func TestBadEnablePushValueIsConnError(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{Params: []Setting{{SettingEnablePush, 7}}})
	if gotErr.Code != ErrCodeProtocol {
		t.Fatalf("ENABLE_PUSH=7 accepted: %+v", gotErr)
	}
}

func TestInitialWindowSizeDeltaAppliesToStreams(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{}) // defaults
	// Open a stream via request headers.
	enc := hpack.NewEncoder()
	block := enc.EncodeBlock(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"}.Fields())
	feed(c, &HeadersFrame{StreamID: 1, Block: block, EndHeaders: true, EndStream: true})
	st := c.Stream(1)
	if st == nil {
		t.Fatal("stream not created")
	}
	before := st.sendWindow
	feed(c, &SettingsFrame{Params: []Setting{{SettingInitialWindowSize, uint32(before) + 1000}}})
	if st.sendWindow != before+1000 {
		t.Fatalf("stream window not adjusted: %d -> %d", before, st.sendWindow)
	}
}

func TestPushPromiseWhenDisabledIsConnError(t *testing.T) {
	noPush := DefaultSettings()
	noPush.EnablePush = false
	c := NewCore(false, noPush)
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	st := c.StartRequest(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"}.Fields(), nil)
	_ = st
	feed(c, &PushPromiseFrame{StreamID: 1, PromisedID: 2, Block: []byte{0x82, 0x87, 0x84, 0x41, 0x01, 0x61}, EndHeaders: true})
	if gotErr.Code != ErrCodeProtocol {
		t.Fatalf("PUSH_PROMISE with push disabled accepted: %+v", gotErr)
	}
}

func TestFlowControlAutoReplenishment(t *testing.T) {
	// The testbed endpoint replenishes its receive windows automatically
	// (as browsers do), so heavy DATA traffic never stalls on flow
	// control and the window never goes negative.
	c := NewCore(false, DefaultSettings())
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	c.StartRequest(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"}.Fields(), nil)
	big := make([]byte, DefaultMaxFrameSize)
	for i := 0; i < 40; i++ { // 640 KB, 10x the default window
		feed(c, &DataFrame{StreamID: 1, Data: viewOf(big)})
	}
	if gotErr.Code != 0 {
		t.Fatalf("replenished windows still errored: %+v", gotErr)
	}
	if c.recvWindow < 0 {
		t.Fatalf("connection receive window negative: %d", c.recvWindow)
	}
	// WINDOW_UPDATE frames must have been queued for the peer.
	updates := 0
	for {
		b := c.PopWrite(0)
		if b == nil {
			break
		}
		var r FrameReader
		r.Feed(b)
		f, _ := r.Next()
		if _, ok := f.(*WindowUpdateFrame); ok {
			updates++
		}
	}
	if updates == 0 {
		t.Fatal("no WINDOW_UPDATE emitted")
	}
}

func TestWindowUpdateOverflowIsError(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{})
	feed(c, &WindowUpdateFrame{StreamID: 0, Increment: maxWindow})
	if gotErr.Code != ErrCodeFlowControl {
		t.Fatalf("connection window overflow accepted: %+v", gotErr)
	}
}

func TestGoAwayStopsProcessing(t *testing.T) {
	c := NewCore(false, DefaultSettings())
	goAway := false
	c.OnGoAway = func(*GoAwayFrame) { goAway = true }
	headers := 0
	c.OnHeaders = func(*Stream, []hpack.HeaderField, bool) { headers++ }
	cs := c.StartRequest(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"}.Fields(), nil)
	_ = cs
	feed(c, &GoAwayFrame{LastStreamID: 0, Code: ErrCodeNo})
	if !goAway {
		t.Fatal("GOAWAY not surfaced")
	}
	// Frames after GOAWAY are ignored.
	enc := hpack.NewEncoder()
	block := enc.EncodeBlock([]hpack.HeaderField{{Name: ":status", Value: "200"}})
	feed(c, &HeadersFrame{StreamID: 1, Block: block, EndHeaders: true, EndStream: true})
	if headers != 0 {
		t.Fatal("frames processed after GOAWAY")
	}
}

func TestRSTStreamClosesAndNotifies(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{})
	enc := hpack.NewEncoder()
	block := enc.EncodeBlock(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"}.Fields())
	feed(c, &HeadersFrame{StreamID: 1, Block: block, EndHeaders: true, EndStream: true})
	var rstCode ErrCode
	c.OnRST = func(st *Stream, code ErrCode) { rstCode = code }
	feed(c, &RSTStreamFrame{StreamID: 1, Code: ErrCodeCancel})
	if rstCode != ErrCodeCancel {
		t.Fatalf("RST not surfaced: %v", rstCode)
	}
	if c.Stream(1) != nil {
		t.Fatal("stream not closed after RST")
	}
}

func TestInterleavedContinuationIsConnError(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{})
	enc := hpack.NewEncoder()
	block := enc.EncodeBlock(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"}.Fields())
	// HEADERS without END_HEADERS followed by a PING: protocol error.
	feed(c, &HeadersFrame{StreamID: 1, Block: block[:2], EndHeaders: false})
	feed(c, &PingFrame{})
	if gotErr.Code != ErrCodeProtocol {
		t.Fatalf("interleaved CONTINUATION accepted: %+v", gotErr)
	}
}

func TestUnexpectedContinuationIsConnError(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{})
	feed(c, &ContinuationFrame{StreamID: 1, Block: []byte{0}, EndHeaders: true})
	if gotErr.Code != ErrCodeProtocol {
		t.Fatalf("stray CONTINUATION accepted: %+v", gotErr)
	}
}

func TestEvenClientStreamIDIsConnError(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{})
	enc := hpack.NewEncoder()
	block := enc.EncodeBlock(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"}.Fields())
	feed(c, &HeadersFrame{StreamID: 2, Block: block, EndHeaders: true, EndStream: true})
	if gotErr.Code != ErrCodeProtocol {
		t.Fatalf("even client stream id accepted: %+v", gotErr)
	}
}

func TestDecreasingStreamIDIsConnError(t *testing.T) {
	c := NewCore(true, DefaultSettings())
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	c.Recv(clientPrefaceBytes())
	feed(c, &SettingsFrame{})
	enc := hpack.NewEncoder()
	mk := func(id uint32) *HeadersFrame {
		block := enc.EncodeBlock(Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"}.Fields())
		return &HeadersFrame{StreamID: id, Block: block, EndHeaders: true, EndStream: true}
	}
	feed(c, mk(5))
	feed(c, mk(3))
	if gotErr.Code != ErrCodeProtocol {
		t.Fatalf("decreasing stream id accepted: %+v", gotErr)
	}
}

func TestParseRequestValidation(t *testing.T) {
	if _, err := ParseRequest([]hpack.HeaderField{{Name: ":method", Value: "GET"}}); err == nil {
		t.Fatal("incomplete pseudo-headers accepted")
	}
	if _, err := ParseRequest([]hpack.HeaderField{
		{Name: ":method", Value: "GET"}, {Name: ":path", Value: "/"},
		{Name: ":bogus", Value: "x"},
	}); err == nil {
		t.Fatal("unknown pseudo-header accepted")
	}
	r, err := ParseRequest(Request{Method: "GET", Scheme: "https", Authority: "h", Path: "/p",
		Header: []hpack.HeaderField{{Name: "x", Value: "y"}}}.Fields())
	if err != nil || r.Authority != "h" || len(r.Header) != 1 {
		t.Fatalf("round trip failed: %+v %v", r, err)
	}
	if r.URL() != "https://h/p" {
		t.Fatalf("URL = %s", r.URL())
	}
}

func TestDataForUnknownStreamCountsAgainstConnWindowOnly(t *testing.T) {
	c := NewCore(false, DefaultSettings())
	c.Start() // queue window update: conn recv window large
	var gotErr ConnError
	c.OnConnError = func(err ConnError) { gotErr = err }
	feed(c, &DataFrame{StreamID: 99, Data: viewOf(make([]byte, 1000))})
	if gotErr.Code != 0 {
		t.Fatalf("data for unknown stream errored: %+v", gotErr)
	}
}
