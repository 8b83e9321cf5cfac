package hpack_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/hpack"
)

// TestEncodeBlockAllocBudget pins live header encoding at zero
// allocations: every request and response field list of a generated
// site, encoded in connection order on a warmed encoder (output buffer
// and table ring grown by AllocsPerRun's warm-up call). Matching
// against the static table used to build a name\x00value key per field,
// which escaped to the heap whenever the pair outgrew the compiler's
// 32-byte stack buffer.
func TestEncodeBlockAllocBudget(t *testing.T) {
	site := corpus.Generate(corpus.RandomProfile(), 0, 1)
	in := site.Prepared().Interns()
	var lists [][]hpack.HeaderField
	for id := int32(0); id < int32(in.NumResources()); id++ {
		lists = append(lists, in.ReqFields(id))
	}
	for id := int32(0); id < int32(in.NumResources()); id++ {
		if fields, _, ok := in.RespFieldsOf(in.EntryOf(id)); ok {
			lists = append(lists, fields)
		}
	}
	if len(lists) < 20 {
		t.Fatalf("test premise: only %d field lists on the generated site", len(lists))
	}
	enc := hpack.NewEncoder()
	bytesOut := 0
	avg := testing.AllocsPerRun(20, func() {
		enc.Reset()
		for _, fields := range lists {
			bytesOut += len(enc.EncodeBlock(fields))
		}
	})
	if avg != 0 {
		t.Errorf("encoding %d header blocks allocates %.1f, want 0", len(lists), avg)
	}
	if bytesOut == 0 {
		t.Fatal("encoder produced no bytes")
	}
}
