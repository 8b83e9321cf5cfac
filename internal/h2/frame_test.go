package h2

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// viewOf wraps a contiguous payload as the one-part view a DATA frame
// built for the wire carries.
func viewOf(b []byte) DataView {
	if len(b) == 0 {
		return DataView{}
	}
	return DataView{n: len(b), parts: [][]byte{b}}
}

// sameFrame is reflect.DeepEqual, except that two DATA frames are equal
// when their payload bytes are, however the views split them.
func sameFrame(a, b Frame) bool {
	da, ok := a.(*DataFrame)
	if !ok {
		return reflect.DeepEqual(a, b)
	}
	db, ok := b.(*DataFrame)
	return ok && da.StreamID == db.StreamID && da.EndStream == db.EndStream &&
		da.Data.Len() == db.Data.Len() && bytes.Equal(da.Data.AppendTo(nil), db.Data.AppendTo(nil))
}

func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	var r FrameReader
	r.Feed(AppendFrame(nil, f))
	got, err := r.Next()
	if err != nil {
		t.Fatalf("decode %v: %v", f.Kind(), err)
	}
	if got == nil {
		t.Fatalf("decode %v: incomplete", f.Kind())
	}
	return got
}

func TestFrameRoundTrips(t *testing.T) {
	frames := []Frame{
		&DataFrame{StreamID: 1, Data: viewOf([]byte("hello")), EndStream: true},
		&DataFrame{StreamID: 3, Data: viewOf(nil), EndStream: false},
		&HeadersFrame{StreamID: 5, Block: []byte{0x82}, EndHeaders: true, EndStream: true},
		&HeadersFrame{StreamID: 7, Block: []byte{0x82, 0x86}, EndHeaders: false,
			HasPriority: true, Priority: PriorityParam{ParentID: 5, Exclusive: true, Weight: 219}},
		&PriorityFrame{StreamID: 9, Priority: PriorityParam{ParentID: 7, Weight: 15}},
		&RSTStreamFrame{StreamID: 2, Code: ErrCodeCancel},
		&SettingsFrame{Params: []Setting{{SettingEnablePush, 0}, {SettingInitialWindowSize, 1 << 20}}},
		&SettingsFrame{Ack: true},
		&PushPromiseFrame{StreamID: 1, PromisedID: 2, Block: []byte{0x82, 0x84}, EndHeaders: true},
		&PingFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&PingFrame{Ack: true},
		&GoAwayFrame{LastStreamID: 9, Code: ErrCodeProtocol, Debug: []byte("bye")},
		&WindowUpdateFrame{StreamID: 0, Increment: 65535},
		&WindowUpdateFrame{StreamID: 3, Increment: 1},
		&ContinuationFrame{StreamID: 5, Block: []byte{0x01, 0x02}, EndHeaders: true},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		if !sameFrame(got, f) {
			t.Errorf("round trip %v:\n got %#v\nwant %#v", f.Kind(), got, f)
		}
	}
}

func TestFrameReaderIncrementalFeeding(t *testing.T) {
	var wire []byte
	want := []Frame{
		&DataFrame{StreamID: 1, Data: viewOf(bytes.Repeat([]byte("x"), 1000))},
		&WindowUpdateFrame{StreamID: 1, Increment: 1000},
		&DataFrame{StreamID: 1, Data: viewOf([]byte("end")), EndStream: true},
	}
	for _, f := range want {
		wire = AppendFrame(wire, f)
	}
	rng := rand.New(rand.NewSource(5))
	var r FrameReader
	// Frames are only valid until the next Next/Feed call (the reader
	// reuses its scratch buffer, parts list and DATA frame), so compare
	// each one as it is produced instead of collecting them.
	gotN := 0
	for len(wire) > 0 {
		n := rng.Intn(7) + 1
		if n > len(wire) {
			n = len(wire)
		}
		r.Feed(wire[:n])
		wire = wire[n:]
		for {
			f, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if f == nil {
				break
			}
			if gotN >= len(want) {
				t.Fatalf("got more than %d frames", len(want))
			}
			if !sameFrame(f, want[gotN]) {
				t.Errorf("frame %d mismatch:\n got %#v\nwant %#v", gotN, f, want[gotN])
			}
			gotN++
		}
	}
	if gotN != len(want) {
		t.Fatalf("got %d frames, want %d", gotN, len(want))
	}
}

func TestFrameReaderRejectsOversize(t *testing.T) {
	var r FrameReader
	huge := &DataFrame{StreamID: 1, Data: viewOf(make([]byte, DefaultMaxFrameSize+1))}
	r.Feed(AppendFrame(nil, huge))
	if _, err := r.Next(); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestFrameReaderSkipsUnknownTypes(t *testing.T) {
	var r FrameReader
	// Unknown type 0xfa frame followed by a PING.
	wire := appendFrameHeader(nil, 4, FrameType(0xfa), 0, 0)
	wire = append(wire, 1, 2, 3, 4)
	wire = AppendFrame(wire, &PingFrame{Data: [8]byte{9}})
	r.Feed(wire)
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || f.Kind() != FramePing {
		t.Fatalf("got %v, want PING after unknown frame", f)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		typ  FrameType
		fl   Flags
		id   uint32
		pay  []byte
	}{
		{"DATA on stream 0", FrameData, 0, 0, []byte("x")},
		{"HEADERS on stream 0", FrameHeaders, FlagEndHeaders, 0, []byte{0x82}},
		{"PRIORITY wrong len", FramePriority, 0, 1, []byte{1, 2, 3}},
		{"RST wrong len", FrameRSTStream, 0, 1, []byte{1}},
		{"SETTINGS on stream", FrameSettings, 0, 1, nil},
		{"SETTINGS bad len", FrameSettings, 0, 0, []byte{1, 2, 3}},
		{"SETTINGS ack payload", FrameSettings, FlagAck, 0, []byte{0, 0, 0, 0, 0, 0}},
		{"PING wrong len", FramePing, 0, 0, []byte{1}},
		{"GOAWAY short", FrameGoAway, 0, 0, []byte{1, 2, 3}},
		{"WINDOW_UPDATE zero", FrameWindowUpdate, 0, 1, []byte{0, 0, 0, 0}},
		{"PUSH_PROMISE short", FramePushPromise, FlagEndHeaders, 1, []byte{0, 0}},
		{"bad DATA padding", FrameData, FlagPadded, 1, []byte{5, 1, 2}},
	}
	for _, tc := range cases {
		if _, err := parseFrame(tc.typ, tc.fl, tc.id, tc.pay); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// Property: any DATA frame payload survives the wire intact, split across
// arbitrary chunk boundaries.
func TestPropertyDataFrameRoundTrip(t *testing.T) {
	f := func(data []byte, id uint32, end bool) bool {
		if len(data) > DefaultMaxFrameSize {
			data = data[:DefaultMaxFrameSize]
		}
		id = id%1000 + 1
		var r FrameReader
		r.Feed(AppendFrame(nil, &DataFrame{StreamID: id, Data: viewOf(data), EndStream: end}))
		got, err := r.Next()
		if err != nil || got == nil {
			return false
		}
		df, ok := got.(*DataFrame)
		return ok && df.StreamID == id && df.EndStream == end && df.Data.Len() == len(data) && bytes.Equal(df.Data.AppendTo(nil), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityParamRoundTrip(t *testing.T) {
	f := func(parent uint32, excl bool, weight uint8) bool {
		p := PriorityParam{ParentID: parent & 0x7fffffff, Exclusive: excl, Weight: weight}
		enc := appendPriorityParam(nil, p)
		return parsePriorityParam(enc) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSettingsValue(t *testing.T) {
	f := &SettingsFrame{Params: []Setting{
		{SettingEnablePush, 1},
		{SettingEnablePush, 0}, // last one wins
	}}
	v, ok := f.Value(SettingEnablePush)
	if !ok || v != 0 {
		t.Fatalf("Value = %d,%v want 0,true", v, ok)
	}
	if _, ok := f.Value(SettingMaxFrameSize); ok {
		t.Fatal("missing setting reported present")
	}
}
