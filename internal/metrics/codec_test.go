package metrics

import (
	"reflect"
	"testing"
	"time"
)

func sketchOf(vals ...time.Duration) *Sketch {
	k := &Sketch{}
	for _, v := range vals {
		k.Add(v)
	}
	return k
}

func TestSketchCodecRoundTrip(t *testing.T) {
	for name, k := range map[string]*Sketch{
		"empty":     {},
		"zeros":     sketchOf(0, -time.Second, 0),
		"mixed":     sketchOf(0, time.Millisecond, 3*time.Second, 17*time.Microsecond, time.Minute),
		"singleton": sketchOf(42 * time.Millisecond),
	} {
		enc := k.AppendBinary(nil)
		if string(enc) != string(k.AppendBinary(nil)) {
			t.Fatalf("%s: encoding not deterministic", name)
		}
		var got Sketch
		rest, err := got.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", name, len(rest))
		}
		if !reflect.DeepEqual(&got, k) {
			t.Fatalf("%s: round trip diverged:\n got %+v\nwant %+v", name, got, *k)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.95, 1} {
			if got.Quantile(p) != k.Quantile(p) {
				t.Fatalf("%s: quantile %v diverged", name, p)
			}
		}
	}
}

func TestSketchCodecMergedEqualsDirect(t *testing.T) {
	// The merge contract the codec round-trips: a sketch built directly
	// must encode like the merge of sketches built from any partition of
	// its values. The codec's only remaining consumer is bench/.
	all := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, time.Second, 90 * time.Millisecond, 2 * time.Second}
	direct := sketchOf(all...)
	a, b := sketchOf(all[:3]...), sketchOf(all[3:]...)
	var merged Sketch
	merged.MergeFrom(a)
	merged.MergeFrom(b)
	if string(direct.AppendBinary(nil)) != string(merged.AppendBinary(nil)) {
		t.Fatal("merged sketch encodes differently from directly built sketch")
	}
}

func TestSketchCodecRejectsCorruptPayloads(t *testing.T) {
	valid := sketchOf(time.Millisecond, time.Second).AppendBinary(nil)
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": valid[:len(valid)-1],
		// n = 5 but only two values' worth of buckets: sum check fires.
		"sum mismatch": func() []byte {
			k := sketchOf(time.Millisecond, time.Second)
			k.n = 5
			return k.AppendBinary(nil)
		}(),
		"negative n": func() []byte {
			k := sketchOf(time.Millisecond)
			k.n = -1
			k.zero = -1 // keep the sum consistent so the sign check fires
			k.counts[0] = 0
			return k.AppendBinary(nil)
		}(),
		"inverted minmax": func() []byte {
			k := sketchOf(time.Millisecond)
			k.min, k.max = k.max+1, k.min
			return k.AppendBinary(nil)
		}(),
	}
	for name, payload := range cases {
		var got Sketch
		if _, err := got.DecodeBinary(payload); err == nil {
			t.Errorf("%s: corrupt payload decoded without error", name)
		}
	}
}

func TestSampleCodecRoundTripRaw(t *testing.T) {
	var s Sample
	for _, v := range []time.Duration{5 * time.Millisecond, time.Millisecond, 3 * time.Second} {
		s.Add(v)
	}
	_ = s.Median() // populate the sorted cache; it must not leak into the encoding
	enc := s.AppendBinary(nil)
	var got Sample
	rest, err := got.DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(got.Values, s.Values) {
		t.Fatalf("values diverged: %v vs %v", got.Values, s.Values)
	}
	if got.Median() != s.Median() || got.Mean() != s.Mean() || got.StdErr() != s.StdErr() {
		t.Fatal("summary statistics diverged after round trip")
	}
}

func TestSampleCodecRoundTripCompacted(t *testing.T) {
	var s Sample
	for i := 0; i < 31; i++ {
		s.Add(time.Duration(i*i) * time.Millisecond)
	}
	s.Compact()
	enc := s.AppendBinary(nil)
	var got Sample
	rest, err := got.DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !got.Compacted() {
		t.Fatal("compacted sample decoded as raw")
	}
	if got.N() != s.N() || got.Median() != s.Median() || got.Mean() != s.Mean() ||
		got.std() != s.std() || got.StdErr() != s.StdErr() {
		t.Fatal("frozen statistics diverged after round trip")
	}
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if got.sketch.Quantile(p) != s.sketch.Quantile(p) {
			t.Fatalf("percentile %v diverged", p)
		}
	}
}

func TestSampleCodecRejectsCountMismatch(t *testing.T) {
	var s Sample
	s.Add(time.Millisecond)
	s.Add(time.Second)
	s.Compact()
	enc := s.AppendBinary(nil)
	// Byte 1 is the compacted count uvarint (small, single byte):
	// bump it so it disagrees with the sketch population.
	enc[1]++
	var got Sample
	if _, err := got.DecodeBinary(enc); err == nil {
		t.Fatal("count/population mismatch decoded without error")
	}
	if _, err := got.DecodeBinary([]byte{0xff}); err == nil {
		t.Fatal("unknown mode decoded without error")
	}
	if _, err := got.DecodeBinary(nil); err == nil {
		t.Fatal("empty payload decoded without error")
	}
}
