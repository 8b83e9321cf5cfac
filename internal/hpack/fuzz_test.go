package hpack

import "testing"

// FuzzDecodeBlock runs arbitrary header-block bytes through the HPACK
// decoder. The block is peer-controlled input, so the contract is that
// malformed bytes return an error from DecodeBlock — never a panic, an
// out-of-range table lookup, or runaway memory (the decoder's string
// and field-count limits bound the output).
//
// Seeds are real encoder output — including the pre-encode fixtures'
// dynamic and static modes — so mutations start from valid blocks and
// explore integer-prefix boundaries, Huffman padding, and table-size
// update placement. Two Huffman-coded strings are seeded bare for the
// differential check at the top of the fuzz body.
func FuzzDecodeBlock(f *testing.F) {
	reqFields := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "site000.random-100.test"},
		{Name: ":path", Value: "/css/style0.css"},
		{Name: "accept", Value: "text/css,*/*;q=0.1"},
	}
	respFields := []HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "content-type", Value: "text/html; charset=utf-8"},
		{Name: "content-length", Value: "48231"},
		{Name: "cache-control", Value: "max-age=604800"},
		{Name: "cookie", Value: "session=0123456789abcdef", Sensitive: true},
	}
	// Dynamic-mode sequence: the second block's indexed references into
	// the dynamic table are the stateful shape worth mutating.
	e := NewEncoder()
	f.Add(append([]byte(nil), e.EncodeBlock(reqFields)...))
	f.Add(append([]byte(nil), e.EncodeBlock(respFields)...))
	// Reduce then raise between two blocks: the next block opens with two
	// size updates, the minimum and then the final size.
	e.SetMaxDynamicTableSize(0)
	e.SetMaxDynamicTableSize(DefaultDynamicTableSize)
	f.Add(append([]byte(nil), e.EncodeBlock(reqFields)...))
	// Static-only pre-encoded fixture (pure function of the field list).
	f.Add(preEncodeStatic(reqFields).Block)
	// First-block pre-encode fixture (pristine-table dynamic encoding).
	f.Add(PreEncode(respFields).Block)
	f.Add(huffmanEncode(nil, "site000.random-100.test"))
	f.Add(huffmanEncode(nil, "\x00\x16\xff~ long codes"))
	f.Add([]byte{0x20})             // table size update to zero
	f.Add([]byte{0x3f, 0xff, 0xff}) // large integer prefix

	f.Fuzz(func(t *testing.T, block []byte) {
		// The same bytes read as one Huffman-coded string: the table
		// decoder must agree with the reference tree walk on whether
		// they decode and to what.
		if err := checkHuffmanAgainstRef(block); err != nil {
			t.Fatal(err)
		}
		d := NewDecoder()
		fields, err := d.DecodeBlock(block)
		if err != nil {
			return // surfaced error is the contract; panics are the bug
		}
		for _, hf := range fields {
			_ = hf.size()
		}
		// A decoder that accepted the block must stay usable: decode a
		// known-good block on the same state.
		if _, err := d.DecodeBlock([]byte{0x82}); err != nil {
			t.Fatalf("decoder wedged after accepted block: %v", err)
		}
	})
}
