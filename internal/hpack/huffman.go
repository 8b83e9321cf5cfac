package hpack

import (
	"errors"
	"fmt"
)

// ErrHuffman is returned for invalid Huffman-coded string literals.
var ErrHuffman = errors.New("hpack: invalid Huffman-coded data")

// The decoder is a table-driven state machine that consumes its input a
// byte at a time, as two 4-bit steps. A state is an interior node of the
// RFC 7541 code tree — a proper prefix of some code, the root being the
// empty prefix. The code has 257 leaves (256 symbols and EOS), so there
// are exactly 256 states and one fits a byte. No code is shorter than
// five bits, so four bits complete at most one symbol. The 16 KB table
// stays in L1 beside a simulation's working set and takes 30 us to
// build; one indexed by whole bytes decodes hot strings faster still
// (400 against 230 MB/s) but is 256 KB, adds 0.3 ms to every process
// start, and made no measurable difference to a page load.

// huffStep[s][n] is the move from state s on the four bits n, packed:
// the state reached in bits 0-7, the symbol completed on the way in
// bits 8-15 when huffEmit is set, and huffFail when the bits run into
// EOS, the only code the tree has no symbol for.
var huffStep [256][16]uint32

const (
	huffEmit = 1 << 16
	huffFail = 1 << 17
)

// huffEnd[s] says what ending the input in state s means: the bits of
// an unfinished code are the string's padding.
var huffEnd [256]uint8

const (
	huffEndOK      = iota // no padding, or at most seven one-bits
	huffEndLong           // more than seven bits into a code
	huffEndNotOnes        // padding that is not a prefix of EOS
)

func init() {
	// kids[s][bit] is where a bit leads from interior node s: another
	// interior node when >= 0, symbol -1-k when negative, or into EOS.
	const eos = 1 << 14
	var kids [256][2]int16
	for s := range kids {
		kids[s] = [2]int16{eos, eos}
	}
	var depth [256]uint8
	ones := [256]bool{0: true} // the prefix is all one-bits
	states := int16(1)
	for sym := 0; sym < 256; sym++ {
		code, bits := huffCodes[sym], int(huffLens[sym])
		s := int16(0)
		for i := bits - 1; i > 0; i-- {
			bit := code >> uint(i) & 1
			if kids[s][bit] == eos {
				kids[s][bit] = states
				depth[states] = depth[s] + 1
				ones[states] = ones[s] && bit == 1
				states++
			}
			s = kids[s][bit]
		}
		kids[s][code&1] = int16(-1 - sym)
	}
	for s := range huffStep {
		switch {
		case depth[s] > 7:
			huffEnd[s] = huffEndLong
		case !ones[s]:
			huffEnd[s] = huffEndNotOnes
		}
		for n := range huffStep[s] {
			at, step := int16(s), uint32(0)
			for i := 3; i >= 0 && step&huffFail == 0; i-- {
				switch next := kids[at][n>>uint(i)&1]; {
				case next == eos:
					step = huffFail
				case next < 0:
					step |= huffEmit | uint32(-1-next)<<8
					at = 0
				default:
					at = next
				}
			}
			huffStep[s][n] = step | uint32(at)
		}
	}
}

// HuffmanDecode decodes an RFC 7541 Huffman-coded string. Padding must be
// the most-significant bits of the EOS symbol (all ones) and shorter than
// one byte, per the RFC's strict requirements.
func HuffmanDecode(data []byte) ([]byte, error) {
	return huffmanDecodeAppend(nil, data)
}

// huffmanDecodeAppend appends the decoded string onto dst (the decoder's
// reused scratch buffer).
func huffmanDecodeAppend(dst, data []byte) ([]byte, error) {
	state := uint32(0)
	for _, b := range data {
		hi := huffStep[state&0xff][b>>4]
		if hi&huffEmit != 0 {
			dst = append(dst, byte(hi>>8))
		}
		lo := huffStep[hi&0xff][b&0xf]
		if lo&huffEmit != 0 {
			dst = append(dst, byte(lo>>8))
		}
		if (hi|lo)&huffFail != 0 {
			return nil, ErrHuffman // EOS inside the string
		}
		state = lo
	}
	switch huffEnd[state&0xff] {
	case huffEndLong:
		return nil, fmt.Errorf("%w: padding longer than 7 bits", ErrHuffman)
	case huffEndNotOnes:
		return nil, fmt.Errorf("%w: padding not EOS prefix", ErrHuffman)
	}
	return dst, nil
}

// HuffmanEncodeLength returns the encoded size of s in bytes.
func HuffmanEncodeLength(s string) int {
	bits := 0
	for i := 0; i < len(s); i++ {
		bits += int(huffLens[s[i]])
	}
	return (bits + 7) / 8
}

// HuffmanEncode appends the Huffman coding of s to dst.
func HuffmanEncode(dst []byte, s string) []byte {
	var acc uint64
	var nbits uint
	for i := 0; i < len(s); i++ {
		c := s[i]
		acc = acc<<uint(huffLens[c]) | uint64(huffCodes[c])
		nbits += uint(huffLens[c])
		for nbits >= 8 {
			nbits -= 8
			dst = append(dst, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		// Pad with the most-significant bits of EOS (all ones).
		acc = acc<<(8-nbits) | (0xff >> nbits)
		dst = append(dst, byte(acc))
	}
	return dst
}
