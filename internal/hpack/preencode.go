package hpack

// Pre-encoded header blocks: the "encode once per site" half of the
// testbed's prepare-once/replay-many design. A replayed site's request,
// push-promise and response header lists are fixed at prepare time, so
// their HPACK blocks can be encoded once and replayed as a memcpy —
// provided the bytes are exactly what the live encoder would have
// emitted. Two modes make that guarantee:
//
//   - Static-only (Encoder.DisableIndexing): the encoder never touches
//     the dynamic table, so encoding is a pure function of the field
//     list and a block pre-encoded by such an encoder is valid at any
//     point on the connection.
//
//   - Deterministic dynamic table: with indexing enabled, a block's
//     encoding depends only on the dynamic-table contents, which are in
//     turn determined by the sequence of blocks encoded since the
//     connection opened. A PreEncoded therefore carries the insertions
//     its encoding performed; replaying a pre-encoded *sequence* from a
//     pristine encoder (ApplyPreEncoded after a CanUsePreEncoded check
//     against the block counter) keeps the table — and hence every
//     byte — identical to live encoding. Byte equality is pinned by
//     TestPreEncodeMatchesLiveEncoder.
type PreEncoded struct {
	// Block is the complete header block fragment.
	Block []byte
	// Adds lists the dynamic-table insertions encoding the block
	// performed, in order (empty in static-only mode).
	Adds []HeaderField
	// Static marks a block encoded in static-only mode.
	Static bool
}

// PreEncodeBlock encodes fields on e and returns a stable copy of the
// block together with the dynamic-table insertions it performed. It
// advances e's state exactly like EncodeBlock, so chaining calls on one
// scratch encoder pre-encodes a whole connection-prefix sequence: the
// i-th returned block is valid on a live encoder that has emitted i
// blocks.
func (e *Encoder) PreEncodeBlock(fields []HeaderField) PreEncoded {
	var adds []HeaderField
	e.recordAdds = &adds
	block := e.EncodeBlock(fields)
	e.recordAdds = nil
	return PreEncoded{
		Block:  append([]byte(nil), block...),
		Adds:   adds,
		Static: e.DisableIndexing,
	}
}

// PreEncode pre-encodes a single block as the first on a connection
// (pristine dynamic table).
func PreEncode(fields []HeaderField) PreEncoded {
	return NewEncoder().PreEncodeBlock(fields)
}

// CanUsePreEncoded reports whether emitting pe now is byte-identical to
// live-encoding its field list: no pending table-size signal, and either
// static-only blocks on a static-only encoder, or a dynamic-mode block
// at exactly its position in the pre-encoded sequence (seqPos blocks
// emitted since the connection opened).
func (e *Encoder) CanUsePreEncoded(pe PreEncoded, seqPos int) bool {
	if e.sizeChanged {
		return false
	}
	if e.DisableIndexing {
		return pe.Static
	}
	return !pe.Static && e.blocks == seqPos
}

// ApplyPreEncoded replays the state transitions of emitting pe: the
// dynamic-table insertions its encoding performed, and the block count.
// The caller must have checked CanUsePreEncoded and must send pe.Block
// as this block's bytes.
func (e *Encoder) ApplyPreEncoded(pe PreEncoded) {
	for _, hf := range pe.Adds {
		e.dt.add(hf)
	}
	e.blocks++
}
