package hpack

import (
	"bytes"
	"fmt"
	"testing"
)

// reqLists is a replay-shaped sequence of header lists: several requests
// and responses sharing authorities, paths and content types, so the
// dynamic table is exercised (first occurrence literal+insert, repeats
// indexed).
func reqLists() [][]HeaderField {
	var lists [][]HeaderField
	paths := []string{"/", "/style.css", "/app.js", "/img/hero.png", "/style.css"}
	for _, p := range paths {
		lists = append(lists, []HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "www.example.com"},
			{Name: ":path", Value: p},
		})
	}
	for i, ct := range []string{"text/html", "text/css", "application/javascript", "image/png", "text/css"} {
		lists = append(lists, []HeaderField{
			{Name: ":status", Value: "200"},
			{Name: "content-type", Value: ct},
			{Name: "content-length", Value: fmt.Sprintf("%d", 1000+i)},
		})
	}
	return lists
}

// TestPreEncodeMatchesLiveEncoder pins the deterministic-dynamic-table
// contract: a sequence pre-encoded on a scratch encoder is byte-identical
// to live encoding, and applying the pre-encoded blocks leaves the live
// encoder in exactly the state live encoding would have — so mixing
// pre-encoded and live blocks mid-sequence also stays identical.
func TestPreEncodeMatchesLiveEncoder(t *testing.T) {
	lists := reqLists()

	scratch := NewEncoder()
	var pes []PreEncoded
	for _, fields := range lists {
		pes = append(pes, scratch.PreEncodeBlock(fields))
	}

	live := NewEncoder()
	for i, fields := range lists {
		got := live.EncodeBlock(fields)
		if !bytes.Equal(got, pes[i].Block) {
			t.Fatalf("block %d: live %x != pre-encoded %x", i, got, pes[i].Block)
		}
	}

	// Apply the first half pre-encoded, then live-encode the rest: bytes
	// must still match the fully live encoder above.
	mixed := NewEncoder()
	for i, fields := range lists {
		if i < len(lists)/2 {
			if !mixed.CanUsePreEncoded(pes[i], i) {
				t.Fatalf("block %d: CanUsePreEncoded = false at its own position", i)
			}
			mixed.ApplyPreEncoded(pes[i])
			continue
		}
		got := mixed.EncodeBlock(fields)
		if !bytes.Equal(got, pes[i].Block) {
			t.Fatalf("block %d after pre-encoded prefix: %x != %x", i, got, pes[i].Block)
		}
	}

	// Decoding the pre-encoded sequence yields the original field lists.
	dec := NewDecoder()
	for i, pe := range pes {
		fields, err := dec.DecodeBlock(pe.Block)
		if err != nil {
			t.Fatalf("block %d: decode: %v", i, err)
		}
		if len(fields) != len(lists[i]) {
			t.Fatalf("block %d: %d fields, want %d", i, len(fields), len(lists[i]))
		}
		for j, hf := range fields {
			if hf != lists[i][j] {
				t.Fatalf("block %d field %d: %v, want %v", i, j, hf, lists[i][j])
			}
		}
	}
}

// TestPreEncodeOutOfSequenceRejected ensures the guard refuses blocks at
// the wrong table position and static/dynamic mismatches.
func TestPreEncodeOutOfSequenceRejected(t *testing.T) {
	lists := reqLists()
	pe0 := PreEncode(lists[0])

	e := NewEncoder()
	e.EncodeBlock(lists[1]) // table no longer pristine
	if e.CanUsePreEncoded(pe0, 0) {
		t.Fatal("pre-encoded first block accepted after another block was encoded")
	}
	if !e.CanUsePreEncoded(PreEncode(lists[0]), 1) {
		// seqPos matching the counter is the caller's claim; the check is
		// positional, so position 1 with one block encoded is accepted.
		t.Fatal("positional check rejected a matching position")
	}

	st := preEncodeStatic(lists[0])
	if e.CanUsePreEncoded(st, e.blocks) {
		t.Fatal("static block accepted on a dynamic-table encoder")
	}
	e.DisableIndexing = true
	if !e.CanUsePreEncoded(st, 99) {
		t.Fatal("static block rejected on a static-only encoder")
	}
	if e.CanUsePreEncoded(pe0, 99) {
		t.Fatal("dynamic block accepted on a static-only encoder")
	}
}

// preEncodeStatic pre-encodes fields in static-only mode; the result is
// valid at any point on a connection whose encoder has DisableIndexing
// set.
func preEncodeStatic(fields []HeaderField) PreEncoded {
	e := NewEncoder()
	e.DisableIndexing = true
	return e.PreEncodeBlock(fields)
}

// TestPreEncodeStaticMatchesLiveStatic pins the static-only mode: every
// block equals what a DisableIndexing encoder emits live, at any point
// in the sequence.
func TestPreEncodeStaticMatchesLiveStatic(t *testing.T) {
	lists := reqLists()
	live := NewEncoder()
	live.DisableIndexing = true
	for i, fields := range lists {
		pe := preEncodeStatic(fields)
		if len(pe.Adds) != 0 {
			t.Fatalf("block %d: static pre-encode recorded %d table adds", i, len(pe.Adds))
		}
		got := live.EncodeBlock(fields)
		if !bytes.Equal(got, pe.Block) {
			t.Fatalf("block %d: live static %x != pre-encoded %x", i, got, pe.Block)
		}
	}
}

// TestEncoderResetMatchesFresh verifies a Reset encoder re-encodes the
// connection prefix byte-identically to a new encoder, and likewise for
// the decoder.
func TestEncoderResetMatchesFresh(t *testing.T) {
	lists := reqLists()
	e := NewEncoder()
	d := NewDecoder()
	var first [][]byte
	for _, fields := range lists {
		b := append([]byte(nil), e.EncodeBlock(fields)...)
		first = append(first, b)
		if _, err := d.DecodeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Reset()
	d.Reset()
	if e.blocks != 0 {
		t.Fatalf("blocks after Reset = %d", e.blocks)
	}
	for i, fields := range lists {
		b := e.EncodeBlock(fields)
		if !bytes.Equal(b, first[i]) {
			t.Fatalf("block %d after Reset: %x != %x", i, b, first[i])
		}
		fs, err := d.DecodeBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		for j, hf := range fs {
			if hf != lists[i][j] {
				t.Fatalf("block %d field %d after Reset: %v", i, j, hf)
			}
		}
	}
}
