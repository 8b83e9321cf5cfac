package shard

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
)

// FuzzDecodeResults feeds arbitrary bytes through the full result
// decode path a parent uses on child output: the stream deframer, the
// result-index split, and the payload reader including the Sample and
// Sketch codecs. A malformed child payload must surface as an error —
// never a panic, hang, or outsized allocation.
func FuzzDecodeResults(f *testing.F) {
	// Seed with a well-formed result stream so the fuzzer starts from
	// bytes that reach the deep decode paths.
	var s metrics.Sample
	s.Add(time.Millisecond)
	s.Add(time.Second)
	var comp metrics.Sample
	for i := 0; i < 8; i++ {
		comp.Add(time.Duration(i+1) * time.Millisecond)
	}
	comp.Compact()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	payload := AppendUvarint(nil, 0)
	payload = appendSample(payload, &s)
	payload = appendSample(payload, &comp)
	payload = AppendFloat64s(payload, []float64{1.5, -2.25})
	payload = appendRows(payload, [][]string{{"a", "b"}})
	if err := sw.Frame(FrameResult, payload); err != nil {
		f.Fatal(err)
	}
	if err := sw.End(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("RSH1\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewStreamReader(bytes.NewReader(data))
		for {
			kind, framePayload, err := sr.Next()
			if err != nil || kind == FrameEnd {
				return
			}
			if kind != FrameResult {
				continue
			}
			_, rest, err := SplitResult(framePayload)
			if err != nil {
				return
			}
			r := NewReader(rest)
			_ = r.sample()
			_ = r.sample()
			_ = r.Float64s()
			_ = r.rows()
			_ = r.Close()
		}
	})
}
