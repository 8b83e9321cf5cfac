package hpack

import "fmt"

// Encoder compresses header lists into HPACK header blocks. An Encoder is
// stateful (dynamic table) and must be paired with exactly one Decoder on
// the remote side, in connection order.
//
//repolint:pooled
type Encoder struct {
	dt dynamicTable
	// sizeChanged records that the table size was set since the last
	// header block, and minSize the smallest size set in that interval:
	// the next block opens by signalling minSize (when the table has
	// grown again since) and then the final size (RFC 7541 Section 4.2).
	sizeChanged bool
	minSize     uint32
	// DisableIndexing stops the encoder from adding entries to the
	// dynamic table. This is the static-only mode: without dynamic-table
	// state, encoding a header list is a pure function, which is what
	// makes statically pre-encoded blocks valid at any connection point.
	DisableIndexing bool
	// buf is the reused output buffer; see EncodeBlock.
	//
	//repolint:keep rewritten from length zero by every EncodeBlock
	buf []byte
	// blocks counts header blocks emitted (EncodeBlock or
	// ApplyPreEncoded) since construction/Reset; pre-encoded sequences
	// use it to prove the table is at a known point.
	blocks int
	// recordAdds, when set, collects the dynamic-table insertions an
	// EncodeBlock performs (the PreEncodeBlock hook).
	recordAdds *[]HeaderField
}

// NewEncoder returns an encoder with the default 4096-byte dynamic table.
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.dt.maxSize = DefaultDynamicTableSize
	return e
}

// Reset returns the encoder to its post-NewEncoder state while keeping
// its allocated buffers, so a pooled connection reuses the encoder
// without re-growing the table ring or the output buffer.
func (e *Encoder) Reset() {
	e.dt.reset()
	e.dt.maxSize = DefaultDynamicTableSize
	e.sizeChanged, e.minSize = false, 0
	e.DisableIndexing = false
	e.blocks = 0
	e.recordAdds = nil
}

// SetMaxDynamicTableSize applies a table size chosen by the peer's
// SETTINGS_HEADER_TABLE_SIZE. A change is signalled in-band at the start
// of the next block, as required by RFC 7541 Section 4.2: when the size
// is set several times between two blocks, the smallest of them (the
// decoder must evict down to it) and then the last.
func (e *Encoder) SetMaxDynamicTableSize(m uint32) {
	switch {
	case e.sizeChanged:
		e.minSize = min(e.minSize, m)
	case m != e.dt.maxSize:
		e.sizeChanged, e.minSize = true, m
	}
	e.dt.setMaxSize(m)
}

// EncodeBlock compresses fields into a single header block fragment.
// The returned slice aliases the encoder's reused output buffer: it is
// only valid until the next EncodeBlock call, so callers that retain a
// block must copy it (the h2 layer serializes blocks into frames before
// encoding the next one).
//
//repolint:hotpath
func (e *Encoder) EncodeBlock(fields []HeaderField) []byte {
	dst := e.buf[:0]
	if e.sizeChanged {
		if e.minSize < e.dt.maxSize {
			dst = appendInt(dst, 0x20, 5, uint64(e.minSize))
		}
		dst = appendInt(dst, 0x20, 5, uint64(e.dt.maxSize))
		e.sizeChanged = false
	}
	for _, hf := range fields {
		dst = e.appendField(dst, hf)
	}
	e.buf = dst
	e.blocks++
	return dst
}

//repolint:hotpath
func (e *Encoder) appendField(dst []byte, hf HeaderField) []byte {
	if hf.Sensitive {
		// Never-indexed literal (0001xxxx).
		nameIdx := e.bestNameIndex(hf.Name)
		dst = appendInt(dst, 0x10, 4, uint64(nameIdx))
		if nameIdx == 0 {
			dst = appendString(dst, hf.Name)
		}
		return appendString(dst, hf.Value)
	}
	// Exact match? The static table wins over the dynamic one, and either
	// search also yields the name-only index the literal forms fall back to.
	nameIdx, nameOnly := staticIndex(hf.Name, hf.Value)
	if nameIdx != 0 && !nameOnly {
		return appendInt(dst, 0x80, 7, uint64(nameIdx))
	}
	if i, dynNameOnly := e.dt.search(hf); i != 0 {
		if !dynNameOnly {
			return appendInt(dst, 0x80, 7, uint64(staticTableLen+i))
		}
		if nameIdx == 0 {
			nameIdx = staticTableLen + i
		}
	}
	// Literal with incremental indexing (01xxxxxx), indexed name if any.
	if e.DisableIndexing {
		dst = appendInt(dst, 0, 4, uint64(nameIdx)) // without indexing
	} else {
		dst = appendInt(dst, 0x40, 6, uint64(nameIdx))
		e.dt.add(hf)
		if e.recordAdds != nil {
			*e.recordAdds = append(*e.recordAdds, hf)
		}
	}
	if nameIdx == 0 {
		dst = appendString(dst, hf.Name)
	}
	return appendString(dst, hf.Value)
}

// bestNameIndex returns an HPACK index whose entry has the given name, or
// zero when the name must be sent literally. Only never-indexed fields
// come here: they must not match by value.
func (e *Encoder) bestNameIndex(name string) int {
	if i, ok := staticName[name]; ok {
		return i
	}
	if i, nameOnly := e.dt.search(HeaderField{Name: name, Value: "\x00hpack-no-such-value"}); i != 0 && nameOnly {
		return staticTableLen + i
	}
	return 0
}

// Decoder decompresses HPACK header blocks.
//
//repolint:pooled
type Decoder struct {
	dt dynamicTable
	// MaxStringLength bounds individual decoded strings; zero means the
	// default of 1 MiB.
	MaxStringLength int
	// maxAllowed is the ceiling the decoder permits for in-band dynamic
	// table size updates (our SETTINGS_HEADER_TABLE_SIZE).
	maxAllowed uint32

	// fields is the reused DecodeBlock output; see DecodeBlock.
	//
	//repolint:keep rewritten from length zero by every DecodeBlock
	fields []HeaderField
	// strs interns decoded string literals: replayed traffic repeats the
	// same authorities, paths and content types on every request, so the
	// steady state decodes without allocating. Bounded by maxInterned.
	//
	//repolint:keep interned strings are immutable; sharing them across connections changes no output
	strs map[string]string
	// hscratch is the reused Huffman decode buffer.
	//
	//repolint:keep scratch, rewritten per Huffman-decoded string
	hscratch []byte
}

// maxInterned bounds the decoder's string intern table so adversarial
// header streams cannot grow it without limit.
const maxInterned = 4096

// NewDecoder returns a decoder with the default 4096-byte dynamic table.
func NewDecoder() *Decoder {
	d := &Decoder{maxAllowed: DefaultDynamicTableSize}
	d.dt.maxSize = DefaultDynamicTableSize
	return d
}

// Reset returns the decoder to its post-NewDecoder state while keeping
// its allocated buffers and the interned-string table (interned strings
// are immutable, so reuse across connections changes no output).
func (d *Decoder) Reset() {
	d.dt.reset()
	d.dt.maxSize = DefaultDynamicTableSize
	d.maxAllowed = DefaultDynamicTableSize
	d.MaxStringLength = 0
}

// SetAllowedMaxDynamicTableSize updates the ceiling we advertised via
// SETTINGS_HEADER_TABLE_SIZE.
func (d *Decoder) SetAllowedMaxDynamicTableSize(m uint32) {
	d.maxAllowed = m
	if d.dt.maxSize > m {
		d.dt.setMaxSize(m)
	}
}

func (d *Decoder) maxString() int {
	if d.MaxStringLength > 0 {
		return d.MaxStringLength
	}
	return 1 << 20
}

// lookup resolves an absolute HPACK index.
func (d *Decoder) lookup(i uint64) (HeaderField, error) {
	if i == 0 {
		return HeaderField{}, fmt.Errorf("%w: index 0", errDecode)
	}
	if i <= uint64(staticTableLen) {
		return staticTable[i], nil
	}
	hf, ok := d.dt.at(int(i) - staticTableLen)
	if !ok {
		return HeaderField{}, fmt.Errorf("%w: index %d out of table", errDecode, i)
	}
	return hf, nil
}

// DecodeBlock decompresses a complete header block. The returned slice
// aliases the decoder's reused output buffer: it is only valid until the
// next DecodeBlock call, so callers that retain fields past that point
// must copy them (the field strings themselves are immutable and safe to
// keep).
func (d *Decoder) DecodeBlock(p []byte) ([]HeaderField, error) {
	out := d.fields[:0]
	defer func() { d.fields = out }()
	seenField := false
	for len(p) > 0 {
		b := p[0]
		switch {
		case b&0x80 != 0: // indexed field
			i, rest, err := readInt(p, 7)
			if err != nil {
				return nil, err
			}
			p = rest
			hf, err := d.lookup(i)
			if err != nil {
				return nil, err
			}
			out = append(out, hf)
			seenField = true

		case b&0xc0 == 0x40: // literal with incremental indexing
			hf, rest, err := d.readLiteral(p, 6)
			if err != nil {
				return nil, err
			}
			p = rest
			d.dt.add(hf)
			out = append(out, hf)
			seenField = true

		case b&0xe0 == 0x20: // dynamic table size update
			if seenField {
				return nil, fmt.Errorf("%w: table size update after fields", errDecode)
			}
			m, rest, err := readInt(p, 5)
			if err != nil {
				return nil, err
			}
			if m > uint64(d.maxAllowed) {
				return nil, fmt.Errorf("%w: table size %d above allowed %d", errDecode, m, d.maxAllowed)
			}
			d.dt.setMaxSize(uint32(m))
			p = rest

		case b&0xf0 == 0x10: // never indexed literal
			hf, rest, err := d.readLiteral(p, 4)
			if err != nil {
				return nil, err
			}
			hf.Sensitive = true
			p = rest
			out = append(out, hf)
			seenField = true

		default: // 0000xxxx literal without indexing
			hf, rest, err := d.readLiteral(p, 4)
			if err != nil {
				return nil, err
			}
			p = rest
			out = append(out, hf)
			seenField = true
		}
	}
	return out, nil
}

func (d *Decoder) readLiteral(p []byte, prefix uint8) (HeaderField, []byte, error) {
	i, p, err := readInt(p, prefix)
	if err != nil {
		return HeaderField{}, nil, err
	}
	var hf HeaderField
	if i != 0 {
		base, err := d.lookup(i)
		if err != nil {
			return HeaderField{}, nil, err
		}
		hf.Name = base.Name
	} else {
		hf.Name, p, err = d.readString(p)
		if err != nil {
			return HeaderField{}, nil, err
		}
	}
	hf.Value, p, err = d.readString(p)
	if err != nil {
		return HeaderField{}, nil, err
	}
	return hf, p, nil
}

// readString decodes one string literal, interning the result so
// repeated literals (the same authorities and paths on every replayed
// request) are decoded without allocating.
func (d *Decoder) readString(p []byte) (string, []byte, error) {
	if len(p) == 0 {
		return "", nil, fmt.Errorf("%w: truncated string", errDecode)
	}
	huff := p[0]&0x80 != 0
	n, p, err := readInt(p, 7)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(d.maxString()) {
		return "", nil, fmt.Errorf("%w: string length %d exceeds limit %d", errDecode, n, d.maxString())
	}
	if uint64(len(p)) < n {
		return "", nil, fmt.Errorf("%w: string extends past block", errDecode)
	}
	raw := p[:n]
	p = p[n:]
	b := raw
	if huff {
		d.hscratch, err = huffmanDecodeAppend(d.hscratch[:0], raw)
		if err != nil {
			return "", nil, err
		}
		b = d.hscratch
	}
	if s, ok := d.strs[string(b)]; ok {
		return s, p, nil
	}
	s := string(b)
	if len(d.strs) < maxInterned {
		if d.strs == nil {
			d.strs = make(map[string]string)
		}
		d.strs[s] = s
	}
	return s, p, nil
}
