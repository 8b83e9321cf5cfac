package shard

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	job := appendString(nil, "delta")
	job = AppendUvarint(job, 3)
	job = appendBytes(job, []byte(`{"x":1}`))
	if err := sw.Frame(FrameJob, job); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if err := sw.Frame(FrameIndex, AppendUvarint(nil, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.End(); err != nil {
		t.Fatal(err)
	}

	sr := NewStreamReader(&buf)
	kind, payload, err := sr.Next()
	if err != nil || kind != FrameJob {
		t.Fatalf("first frame: kind=%v err=%v", kind, err)
	}
	r := NewReader(payload)
	if name := r.String(); name != "delta" {
		t.Fatalf("job name %q", name)
	}
	if n := r.uvarint(); n != 3 {
		t.Fatalf("unit count %d", n)
	}
	if params := r.bytes(); string(params) != `{"x":1}` {
		t.Fatalf("params %q", params)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		kind, payload, err := sr.Next()
		if err != nil || kind != FrameIndex {
			t.Fatalf("index frame %d: kind=%v err=%v", i, kind, err)
		}
		r := NewReader(payload)
		if got := r.uvarint(); got != i {
			t.Fatalf("index %d, want %d", got, i)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	kind, _, err = sr.Next()
	if err != nil || kind != FrameEnd {
		t.Fatalf("end frame: kind=%v err=%v", kind, err)
	}
	if _, _, err := sr.Next(); err == nil {
		t.Fatal("read past end frame succeeded")
	}
}

func TestStreamRejectsCorruptInput(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf)
		if err := sw.Frame(FrameResult, AppendUvarint(nil, 7)); err != nil {
			t.Fatal(err)
		}
		if err := sw.End(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty":           nil,
		"short header":    valid[:3],
		"bad magic":       append([]byte("XSH1"), valid[4:]...),
		"bad version":     append(append([]byte{}, valid[:4]...), append([]byte{9}, valid[5:]...)...),
		"truncated frame": valid[:len(valid)-1],
		"missing end":     valid[:6],
		"unknown kind":    append(append([]byte{}, valid[:5]...), 0x7f, 0x00),
		// End frame claiming two preceding frames when only one was sent.
		"count mismatch": func() []byte {
			b := append([]byte{}, valid...)
			b[len(b)-1] = 2
			return b
		}(),
	}
	for name, input := range cases {
		sr := NewStreamReader(bytes.NewReader(input))
		var err error
		for err == nil {
			var kind FrameKind
			kind, _, err = sr.Next()
			if err == nil && kind == FrameEnd {
				t.Errorf("%s: corrupt stream completed cleanly", name)
				break
			}
		}
		if err == nil {
			t.Errorf("%s: no error surfaced", name)
		}
	}
}

func TestStreamWriterRejectsManualEnd(t *testing.T) {
	sw := NewStreamWriter(&bytes.Buffer{})
	if err := sw.Frame(FrameEnd, nil); err == nil {
		t.Fatal("Frame accepted FrameEnd")
	}
}

func TestSplitResult(t *testing.T) {
	payload := AppendUvarint(nil, 42)
	payload = appendFloat64(payload, 1.5)
	idx, rest, err := SplitResult(payload)
	if err != nil || idx != 42 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
	r := NewReader(rest)
	if v := r.float64(); v != 1.5 {
		t.Fatalf("rest decoded to %v", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SplitResult(nil); err == nil {
		t.Fatal("empty result payload split without error")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	var s metrics.Sample
	for _, v := range []time.Duration{time.Millisecond, 5 * time.Millisecond, time.Second} {
		s.Add(v)
	}
	var comp metrics.Sample
	for i := 0; i < 12; i++ {
		comp.Add(time.Duration(i) * time.Millisecond)
	}
	comp.Compact()
	var sk metrics.Sketch
	sk.Add(time.Millisecond)
	sk.Add(3 * time.Second)

	b := AppendUvarint(nil, 9)
	b = appendVarint(b, -42)
	b = appendDuration(b, 250*time.Millisecond)
	b = appendFloat64(b, math.Pi)
	b = appendString(b, "dsl")
	b = appendBytes(b, []byte{0, 1, 2})
	b = AppendFloat64s(b, []float64{1.25, -0.5})
	b = AppendFloat64s(b, nil)
	b = AppendInt64s(b, []int64{7, -7})
	b = appendStrings(b, []string{"a", ""})
	b = appendRows(b, [][]string{{"r1c1", "r1c2"}, {"r2c1"}})
	b = appendRows(b, nil)
	b = appendSample(b, &s)
	b = appendSample(b, &comp)
	b = AppendSketch(b, &sk)

	r := NewReader(b)
	if v := r.uvarint(); v != 9 {
		t.Fatalf("uvarint %d", v)
	}
	if v := r.varint(); v != -42 {
		t.Fatalf("varint %d", v)
	}
	if v := r.duration(); v != 250*time.Millisecond {
		t.Fatalf("duration %v", v)
	}
	if v := r.float64(); v != math.Pi {
		t.Fatalf("float64 %v", v)
	}
	if v := r.String(); v != "dsl" {
		t.Fatalf("string %q", v)
	}
	if v := r.bytes(); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Fatalf("bytes %v", v)
	}
	if v := r.Float64s(); len(v) != 2 || v[0] != 1.25 || v[1] != -0.5 {
		t.Fatalf("float64s %v", v)
	}
	if v := r.Float64s(); v != nil {
		t.Fatalf("empty float64s %v", v)
	}
	if v := r.Int64s(); len(v) != 2 || v[0] != 7 || v[1] != -7 {
		t.Fatalf("int64s %v", v)
	}
	if v := r.strings(); len(v) != 2 || v[0] != "a" || v[1] != "" {
		t.Fatalf("strings %v", v)
	}
	rows := r.rows()
	if len(rows) != 2 || strings.Join(rows[0], ",") != "r1c1,r1c2" || strings.Join(rows[1], ",") != "r2c1" {
		t.Fatalf("rows %v", rows)
	}
	if v := r.rows(); v != nil {
		t.Fatalf("empty rows %v", v)
	}
	gotS := r.sample()
	if gotS.Median() != s.Median() || gotS.N() != s.N() {
		t.Fatal("raw sample diverged")
	}
	gotC := r.sample()
	if !gotC.Compacted() || gotC.Median() != comp.Median() || gotC.N() != comp.N() {
		t.Fatal("compacted sample diverged")
	}
	gotK := r.Sketch()
	if gotK.Quantile(0.5) != sk.Quantile(0.5) {
		t.Fatal("sketch diverged")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderErrorsAreSticky(t *testing.T) {
	r := NewReader([]byte{0x80}) // unterminated varint
	if r.uvarint() != 0 || r.err == nil {
		t.Fatal("truncated uvarint decoded")
	}
	// Everything after the first failure returns zero values without
	// touching the buffer.
	if r.float64() != 0 || r.String() != "" || r.strings() != nil || r.rows() != nil {
		t.Fatal("sticky error did not zero subsequent reads")
	}
	if s := r.sample(); s.N() != 0 {
		t.Fatal("sticky error did not zero Sample read")
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close lost the sticky error")
	}
}

func TestReaderCloseRejectsTrailingBytes(t *testing.T) {
	r := NewReader(AppendUvarint(nil, 1))
	if err := r.Close(); err == nil {
		t.Fatal("unread payload closed cleanly")
	}
}

func TestReaderBoundsListLengths(t *testing.T) {
	// Claims 2^40 float64s with no bytes behind the claim.
	r := NewReader(AppendUvarint(nil, 1<<40))
	if v := r.Float64s(); v != nil || r.err == nil {
		t.Fatal("oversized float64 list length accepted")
	}
	r = NewReader(AppendUvarint(nil, 1<<40))
	if v := r.bytes(); v != nil || r.err == nil {
		t.Fatal("oversized byte string length accepted")
	}
}
