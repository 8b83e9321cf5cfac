package hpack

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' {
			return -1
		}
		return r
	}, s))
	if err != nil {
		t.Fatalf("bad hex: %v", err)
	}
	return b
}

// --- RFC 7541 Appendix C.4: Huffman-coded request examples ---

func TestHuffmanRFCVectors(t *testing.T) {
	vectors := []struct {
		text string
		hex  string
	}{
		{"www.example.com", "f1e3 c2e5 f23a 6ba0 ab90 f4ff"},
		{"no-cache", "a8eb 1064 9cbf"},
		{"custom-key", "25a8 49e9 5ba9 7d7f"},
		{"custom-value", "25a8 49e9 5bb8 e8b4 bf"},
		{"private", "aec3 771a 4b"},
		{"Mon, 21 Oct 2013 20:13:21 GMT", "d07a be94 1054 d444 a820 0595 040b 8166 e082 a62d 1bff"},
		{"https://www.example.com", "9d29 ad17 1863 c78f 0b97 c8e9 ae82 ae43 d3"},
		{"302", "6402"},
	}
	for _, v := range vectors {
		want := unhex(t, v.hex)
		got := huffmanEncode(nil, v.text)
		if !bytes.Equal(got, want) {
			t.Errorf("huffmanEncode(%q) = %x, want %x", v.text, got, want)
		}
		if n := huffmanEncodeLength(v.text); n != len(want) {
			t.Errorf("huffmanEncodeLength(%q) = %d, want %d", v.text, n, len(want))
		}
		dec, err := huffmanDecodeAppend(nil, want)
		if err != nil {
			t.Errorf("huffmanDecodeAppend(%x): %v", want, err)
			continue
		}
		if string(dec) != v.text {
			t.Errorf("huffmanDecodeAppend(%x) = %q, want %q", want, dec, v.text)
		}
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		enc := huffmanEncode(nil, string(data))
		dec, err := huffmanDecodeAppend(nil, enc)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanRejectsBadPadding(t *testing.T) {
	// 0x00: '0' (5-bit code 00000) followed by 3 zero padding bits —
	// padding must be the all-ones EOS prefix.
	if _, err := huffmanDecodeAppend(nil, []byte{0x00}); err == nil {
		t.Error("accepted non-EOS padding")
	}
	// A full byte of EOS prefix alone is fine ... but 8+ pad bits must fail.
	if _, err := huffmanDecodeAppend(nil, []byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("accepted >7 bits of padding (EOS)")
	}
}

// --- integer coding (RFC 7541 C.1) ---

func TestIntegerRFCVectors(t *testing.T) {
	// C.1.1: encoding 10 with 5-bit prefix => 0x0a.
	if got := appendInt(nil, 0, 5, 10); !bytes.Equal(got, []byte{0x0a}) {
		t.Errorf("encode 10/5 = %x", got)
	}
	// C.1.2: 1337 with 5-bit prefix => 1f 9a 0a.
	if got := appendInt(nil, 0, 5, 1337); !bytes.Equal(got, []byte{0x1f, 0x9a, 0x0a}) {
		t.Errorf("encode 1337/5 = %x", got)
	}
	// C.1.3: 42 with 8-bit prefix => 2a.
	if got := appendInt(nil, 0, 8, 42); !bytes.Equal(got, []byte{0x2a}) {
		t.Errorf("encode 42/8 = %x", got)
	}
	for _, v := range []uint64{0, 1, 30, 31, 32, 127, 128, 1337, 1 << 20} {
		for _, n := range []uint8{4, 5, 6, 7, 8} {
			enc := appendInt(nil, 0, n, v)
			got, rest, err := readInt(enc, n)
			if err != nil || got != v || len(rest) != 0 {
				t.Errorf("roundtrip %d/%d: got %d rest %d err %v", v, n, got, len(rest), err)
			}
		}
	}
}

func TestIntegerTruncated(t *testing.T) {
	if _, _, err := readInt(nil, 5); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := readInt([]byte{0x1f, 0x80}, 5); err == nil {
		t.Error("truncated varint accepted")
	}
	// Overflowing continuation must error, not wrap.
	over := []byte{0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := readInt(over, 5); err == nil {
		t.Error("overflow accepted")
	}
}

// --- full header blocks: RFC 7541 C.3 (no Huffman) and C.4 (Huffman) ---

func reqFields(authority, cacheControl string, custom bool) []HeaderField {
	fs := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "http"},
		{Name: ":path", Value: "/"},
		{Name: ":authority", Value: authority},
	}
	if cacheControl != "" {
		fs = append(fs, HeaderField{Name: "cache-control", Value: cacheControl})
	}
	if custom {
		fs[2] = HeaderField{Name: ":path", Value: "/index.html"}
		fs[1] = HeaderField{Name: ":scheme", Value: "https"}
		fs = append(fs, HeaderField{Name: "custom-key", Value: "custom-value"})
	}
	return fs
}

func TestRequestExamplesWithHuffman(t *testing.T) {
	// RFC 7541 Appendix C.4: three consecutive requests on one connection.
	enc := NewEncoder()
	dec := NewDecoder()

	// C.4.1
	b1 := enc.EncodeBlock(reqFields("www.example.com", "", false))
	want1 := unhex(t, "8286 8441 8cf1 e3c2 e5f2 3a6b a0ab 90f4 ff")
	if !bytes.Equal(b1, want1) {
		t.Fatalf("C.4.1 block = %x, want %x", b1, want1)
	}
	got1, err := dec.DecodeBlock(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1, reqFields("www.example.com", "", false)) {
		t.Fatalf("C.4.1 decoded %v", got1)
	}

	// C.4.2: :authority now indexed from dynamic table.
	b2 := enc.EncodeBlock(reqFields("www.example.com", "no-cache", false))
	want2 := unhex(t, "8286 84be 5886 a8eb 1064 9cbf")
	if !bytes.Equal(b2, want2) {
		t.Fatalf("C.4.2 block = %x, want %x", b2, want2)
	}
	if _, err := dec.DecodeBlock(b2); err != nil {
		t.Fatal(err)
	}

	// C.4.3
	b3 := enc.EncodeBlock(reqFields("www.example.com", "", true))
	want3 := unhex(t, "8287 85bf 4088 25a8 49e9 5ba9 7d7f 8925 a849 e95b b8e8 b4bf")
	if !bytes.Equal(b3, want3) {
		t.Fatalf("C.4.3 block = %x, want %x", b3, want3)
	}
	got3, err := dec.DecodeBlock(b3)
	if err != nil {
		t.Fatal(err)
	}
	if got3[len(got3)-1].Value != "custom-value" {
		t.Fatalf("C.4.3 decoded %v", got3)
	}
	if enc.dt.size != 164 {
		t.Fatalf("encoder table size = %d, want 164", enc.dt.size)
	}
	if dec.dt.size != 164 {
		t.Fatalf("decoder table size = %d, want 164", dec.dt.size)
	}
}

func TestDecodeIndexedStatic(t *testing.T) {
	// C.2.4: indexed field, index 2 (:method GET).
	dec := NewDecoder()
	got, err := dec.DecodeBlock([]byte{0x82})
	if err != nil {
		t.Fatal(err)
	}
	want := []HeaderField{{Name: ":method", Value: "GET"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestDecodeLiteralWithoutIndexing decodes the literal-without-indexing
// representation (RFC 7541 6.2.2), which our encoder never emits, with an
// indexed name (C.2.2) and with a new name. Neither may touch the dynamic
// table.
func TestDecodeLiteralWithoutIndexing(t *testing.T) {
	block := []byte{0x04, 0x0c}
	block = append(block, "/sample/path"...)
	block = append(block, 0x00, 0x08)
	block = append(block, "x-custom"...)
	block = append(block, 0x04)
	block = append(block, "kept"...)
	dec := NewDecoder()
	got, err := dec.DecodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	want := []HeaderField{{Name: ":path", Value: "/sample/path"}, {Name: "x-custom", Value: "kept"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if dec.dt.size != 0 {
		t.Fatalf("decoder table size = %d, want 0", dec.dt.size)
	}
}

func TestLiteralNeverIndexed(t *testing.T) {
	enc := NewEncoder()
	dec := NewDecoder()
	in := []HeaderField{{Name: "authorization", Value: "secret-token", Sensitive: true}}
	block := enc.EncodeBlock(in)
	if block[0]&0xf0 != 0x10 {
		t.Fatalf("sensitive field not never-indexed: first byte %#x", block[0])
	}
	got, err := dec.DecodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Sensitive || got[0].Value != "secret-token" {
		t.Fatalf("got %+v", got[0])
	}
	if enc.dt.size != 0 {
		t.Fatal("sensitive field entered dynamic table")
	}
}

func TestDynamicTableEviction(t *testing.T) {
	enc := NewEncoder()
	enc.SetMaxDynamicTableSize(100)
	dec := NewDecoder()
	dec.SetAllowedMaxDynamicTableSize(100)
	// Each entry is 32 + len overhead; force evictions.
	var lastBlock []byte
	for i := 0; i < 10; i++ {
		hf := HeaderField{Name: "x-header-name", Value: strings.Repeat("v", 20)}
		hf.Value = hf.Value[:10+i]
		lastBlock = enc.EncodeBlock([]HeaderField{hf})
		if _, err := dec.DecodeBlock(lastBlock); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if enc.dt.size > 100 {
			t.Fatalf("encoder table exceeded max: %d", enc.dt.size)
		}
		if enc.dt.size != dec.dt.size {
			t.Fatalf("table size mismatch enc=%d dec=%d", enc.dt.size, dec.dt.size)
		}
	}
}

func TestTableSizeUpdateSignalled(t *testing.T) {
	enc := NewEncoder()
	dec := NewDecoder()
	// Populate, then shrink: the next block must carry a size update.
	enc.EncodeBlock([]HeaderField{{Name: "a", Value: "b"}})
	dec.DecodeBlock(enc.EncodeBlock(nil))
	enc.SetMaxDynamicTableSize(0)
	block := enc.EncodeBlock([]HeaderField{{Name: ":method", Value: "GET"}})
	if block[0]&0xe0 != 0x20 {
		t.Fatalf("expected dynamic table size update prefix, got %#x", block[0])
	}
	if _, err := dec.DecodeBlock(block); err != nil {
		t.Fatal(err)
	}
	if dec.dt.size != 0 {
		t.Fatalf("decoder table not emptied: %d", dec.dt.size)
	}
}

func TestDecoderRejectsOversizeUpdate(t *testing.T) {
	dec := NewDecoder()
	// Update to 8192 > allowed 4096.
	block := appendInt(nil, 0x20, 5, 8192)
	if _, err := dec.DecodeBlock(block); err == nil {
		t.Fatal("oversize table update accepted")
	}
}

func TestDecoderRejectsBadIndex(t *testing.T) {
	dec := NewDecoder()
	if _, err := dec.DecodeBlock([]byte{0x80}); err == nil {
		t.Error("index 0 accepted")
	}
	block := appendInt(nil, 0x80, 7, 99) // dynamic table empty
	if _, err := dec.DecodeBlock(block); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestDecoderRejectsLateSizeUpdate(t *testing.T) {
	dec := NewDecoder()
	block := []byte{0x82}                  // :method GET
	block = appendInt(block, 0x20, 5, 128) // size update after a field
	if _, err := dec.DecodeBlock(block); err == nil {
		t.Fatal("size update after field accepted")
	}
}

// TestStringLengthLimit pins the bound on a literal's wire length. The
// values are raw (non-Huffman) literals, whose wire length is the value's
// length: a Huffman literal of maxStringLength+1 bytes of 'y' would
// encode under the bound.
func TestStringLengthLimit(t *testing.T) {
	rawLiteral := func(n int) []byte {
		// Literal without indexing, new name "x", raw value of n bytes.
		block := []byte{0x00, 0x01, 'x'}
		block = appendInt(block, 0x00, 7, uint64(n))
		return append(block, strings.Repeat("y", n)...)
	}
	dec := NewDecoder()
	got, err := dec.DecodeBlock(rawLiteral(maxStringLength))
	if err != nil {
		t.Fatalf("literal at the bound rejected: %v", err)
	}
	if len(got) != 1 || len(got[0].Value) != maxStringLength {
		t.Fatalf("literal at the bound decoded to %d fields", len(got))
	}
	if _, err := dec.DecodeBlock(rawLiteral(maxStringLength + 1)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("literal over the bound: err = %v, want the length limit", err)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	sanitize := func(s string) string {
		if s == "" {
			return "x"
		}
		return strings.ToLower(s)
	}
	f := func(names, values []string) bool {
		n := len(names)
		if len(values) < n {
			n = len(values)
		}
		if n == 0 {
			return true
		}
		enc := NewEncoder()
		dec := NewDecoder()
		// Two blocks with the same fields: the second exercises dynamic
		// table hits.
		var fields []HeaderField
		for i := 0; i < n; i++ {
			fields = append(fields, HeaderField{Name: sanitize(names[i]), Value: values[i]})
		}
		for pass := 0; pass < 2; pass++ {
			got, err := dec.DecodeBlock(enc.EncodeBlock(fields))
			if err != nil || len(got) != n {
				return false
			}
			for i := range got {
				if got[i].Name != fields[i].Name || got[i].Value != fields[i].Value {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondBlockSmallerViaDynamicTable(t *testing.T) {
	enc := NewEncoder()
	fields := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":authority", Value: "replay.test.example"},
		{Name: "user-agent", Value: "repro-browser/1.0 (testbed)"},
		{Name: "accept", Value: "text/html,application/xhtml+xml"},
	}
	b1 := enc.EncodeBlock(fields)
	b2 := enc.EncodeBlock(fields)
	if len(b2) >= len(b1) {
		t.Fatalf("dynamic table ineffective: first %d bytes, second %d", len(b1), len(b2))
	}
	if len(b2) != len(fields) {
		t.Fatalf("second block should be all single-byte-ish indexed fields, got %d bytes", len(b2))
	}
}

// TestEncoderResizeTwiceBetweenBlocks pins RFC 7541 Section 4.2 for two
// table-size changes between header blocks: the encoder must signal the
// smallest size and then the final one. Signalling only the reduction
// left the decoder with an empty, zero-sized table while the encoder
// indexed into a 4,096-byte one, so the second block failed to decode.
func TestEncoderResizeTwiceBetweenBlocks(t *testing.T) {
	enc, dec := NewEncoder(), NewDecoder()
	custom := []HeaderField{{Name: "x-custom", Value: "kept-across-blocks"}}
	if _, err := dec.DecodeBlock(enc.EncodeBlock(custom)); err != nil {
		t.Fatal(err)
	}
	enc.SetMaxDynamicTableSize(0)
	enc.SetMaxDynamicTableSize(DefaultDynamicTableSize)
	if pe := PreEncode(custom); enc.CanUsePreEncoded(pe, enc.blocks) {
		t.Fatal("pre-encoded block accepted while a size update is pending")
	}
	for i := 0; i < 2; i++ {
		block := enc.EncodeBlock(custom)
		if i == 0 && !bytes.HasPrefix(block, []byte{0x20, 0x3f, 0xe1, 0x1f}) {
			t.Fatalf("block after resize opens with %x, want updates to 0 then 4096", block[:4])
		}
		got, err := dec.DecodeBlock(block)
		if err != nil {
			t.Fatalf("block %d after resize: %v", i, err)
		}
		if len(got) != 1 || got[0] != custom[0] {
			t.Fatalf("block %d after resize decoded %+v", i, got)
		}
		if enc.dt.size != dec.dt.size || enc.dt.size == 0 {
			t.Fatalf("block %d: table sizes enc=%d dec=%d", i, enc.dt.size, dec.dt.size)
		}
	}
}

// TestStaticIndexMatchesKeyedMap checks the allocation-free static
// matcher against the name\x00value map it replaced: every static
// entry, a name-only hit, a same-name/different-value miss and an
// unknown name.
func TestStaticIndexMatchesKeyedMap(t *testing.T) {
	exact := make(map[string]int, staticTableLen)
	for i := staticTableLen; i >= 1; i-- {
		exact[staticTable[i].Name+"\x00"+staticTable[i].Value] = i
	}
	cases := append([]HeaderField(nil), staticTable[1:]...)
	cases = append(cases,
		HeaderField{Name: "content-type", Value: "text/css"}, // name-only hit
		HeaderField{Name: ":status", Value: "418"},           // same name, other value
		HeaderField{Name: ":method", Value: "PUT"},
		HeaderField{Name: "x-unknown", Value: "200"}, // unknown name
		HeaderField{Name: "", Value: ""},
	)
	for _, hf := range cases {
		idx, nameOnly := staticIndex(hf.Name, hf.Value)
		want, ok := exact[hf.Name+"\x00"+hf.Value]
		switch {
		case ok && (idx != want || nameOnly):
			t.Errorf("%q=%q: got (%d, nameOnly %v), want exact %d", hf.Name, hf.Value, idx, nameOnly, want)
		case !ok && idx != staticName[hf.Name]:
			t.Errorf("%q=%q: got index %d, want name index %d", hf.Name, hf.Value, idx, staticName[hf.Name])
		case !ok && nameOnly != (idx != 0):
			t.Errorf("%q=%q: index %d with nameOnly %v", hf.Name, hf.Value, idx, nameOnly)
		}
	}
}
