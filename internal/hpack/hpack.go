// Package hpack implements HPACK header compression (RFC 7541) for the
// from-scratch HTTP/2 stack in internal/h2: static and dynamic tables,
// prefix-coded integers, and Huffman-coded string literals.
//
// The implementation is complete enough to interoperate with itself over
// real connections and to be validated against the RFC 7541 Appendix C
// test vectors (see hpack_test.go).
package hpack

import (
	"errors"
	"fmt"
)

// A HeaderField is a single name/value pair. Sensitive fields are encoded
// as never-indexed literals so intermediaries must not remember them.
type HeaderField struct {
	Name, Value string
	Sensitive   bool
}

// size returns the RFC 7541 Section 4.1 size of the entry (octets + 32).
func (hf HeaderField) size() uint32 {
	return uint32(len(hf.Name) + len(hf.Value) + 32)
}

func (hf HeaderField) String() string {
	return fmt.Sprintf("%s: %s", hf.Name, hf.Value)
}

// DefaultDynamicTableSize is the SETTINGS_HEADER_TABLE_SIZE default.
const DefaultDynamicTableSize = 4096

// errDecode is the base error for malformed header blocks.
var errDecode = errors.New("hpack: decoding error")

// dynamicTable is the FIFO table of recently encoded/decoded fields,
// backed by a ring buffer so inserting a new entry never copies or
// reallocates the existing ones (the old prepend idiom allocated a
// fresh slice per insertion, which dominated the warm-run profile).
// Logical entry 1 is the newest (absolute HPACK index 62).
//
//repolint:pooled
type dynamicTable struct {
	ents    []HeaderField // ring storage; entry i (1-based) lives at (head+i-1)%len
	head    int           // storage index of the newest entry
	n       int           // live entries
	size    uint32
	maxSize uint32 //repolint:keep managed by setMaxSize; the codec Resets restore the default explicitly
}

func (dt *dynamicTable) setMaxSize(m uint32) {
	dt.maxSize = m
	dt.evict()
}

// reset empties the table, keeping the ring storage for reuse. Entries
// are zeroed so the table does not pin decoded strings past a
// connection's lifetime.
func (dt *dynamicTable) reset() {
	for i := 0; i < dt.n; i++ {
		dt.ents[(dt.head+i)%len(dt.ents)] = HeaderField{}
	}
	dt.head, dt.n, dt.size = 0, 0, 0
}

func (dt *dynamicTable) add(hf HeaderField) {
	sz := hf.size()
	if sz > dt.maxSize {
		// An entry larger than the table empties it (RFC 7541 4.4).
		dt.reset()
		return
	}
	if dt.n == len(dt.ents) {
		grown := make([]HeaderField, max(2*len(dt.ents), 8))
		for i := 0; i < dt.n; i++ {
			grown[i] = dt.ents[(dt.head+i)%len(dt.ents)]
		}
		dt.ents, dt.head = grown, 0
	}
	dt.head = (dt.head - 1 + len(dt.ents)) % len(dt.ents)
	dt.ents[dt.head] = hf
	dt.n++
	dt.size += sz
	dt.evict()
}

func (dt *dynamicTable) evict() {
	for dt.size > dt.maxSize && dt.n > 0 {
		idx := (dt.head + dt.n - 1) % len(dt.ents)
		dt.size -= dt.ents[idx].size()
		dt.ents[idx] = HeaderField{}
		dt.n--
	}
}

// at returns the entry with 1-based dynamic index i (1 = newest).
func (dt *dynamicTable) at(i int) (HeaderField, bool) {
	if i < 1 || i > dt.n {
		return HeaderField{}, false
	}
	return dt.ents[(dt.head+i-1)%len(dt.ents)], true
}

// search returns the 1-based dynamic index of the best match:
// exact (name+value) match preferred, else a name-only match; 0 if none.
// The live entries are ents[head:head+n] wrapping at most once, so the
// walk is two plain spans instead of a modulo per entry.
func (dt *dynamicTable) search(hf HeaderField) (idx int, nameOnly bool) {
	end, wrapped := dt.head+dt.n, 0
	if end > len(dt.ents) {
		end, wrapped = len(dt.ents), end-len(dt.ents)
	}
	nameIdx, i := 0, 0
	for _, span := range [2][]HeaderField{dt.ents[dt.head:end], dt.ents[:wrapped]} {
		for k := range span {
			i++
			if e := &span[k]; e.Name == hf.Name {
				if e.Value == hf.Value {
					return i, false
				}
				if nameIdx == 0 {
					nameIdx = i
				}
			}
		}
	}
	return nameIdx, nameIdx != 0
}

// --- integer primitives (RFC 7541 Section 5.1) ---

// appendInt encodes v with an n-bit prefix. first holds the bits already
// set in the first byte (pattern bits above the prefix).
func appendInt(dst []byte, first byte, n uint8, v uint64) []byte {
	max := uint64(1)<<n - 1
	if v < max {
		return append(dst, first|byte(v))
	}
	dst = append(dst, first|byte(max))
	v -= max
	for v >= 128 {
		dst = append(dst, byte(v&0x7f)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// readInt decodes an n-bit-prefix integer starting at p[0].
func readInt(p []byte, n uint8) (v uint64, rest []byte, err error) {
	if len(p) == 0 {
		return 0, nil, fmt.Errorf("%w: truncated integer", errDecode)
	}
	max := uint64(1)<<n - 1
	v = uint64(p[0]) & max
	p = p[1:]
	if v < max {
		return v, p, nil
	}
	var shift uint
	for {
		if len(p) == 0 {
			return 0, nil, fmt.Errorf("%w: truncated varint", errDecode)
		}
		b := p[0]
		p = p[1:]
		v += uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, p, nil
		}
		shift += 7
		if shift > 56 {
			return 0, nil, fmt.Errorf("%w: integer overflow", errDecode)
		}
	}
}

// --- string primitives (RFC 7541 Section 5.2) ---

// appendString encodes s, using Huffman coding when it is shorter.
func appendString(dst []byte, s string) []byte {
	hlen := huffmanEncodeLength(s)
	if hlen < len(s) {
		dst = appendInt(dst, 0x80, 7, uint64(hlen))
		return huffmanEncode(dst, s)
	}
	dst = appendInt(dst, 0, 7, uint64(len(s)))
	return append(dst, s...)
}
