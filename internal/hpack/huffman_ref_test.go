package hpack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The reference decoder: the bit-at-a-time walk of the RFC 7541 code
// tree that huffmanDecodeAppend's table replaced. It is slow and plainly
// right, and defines what the table decoder must accept, reject and
// produce.

// huffNode is a binary decoding tree node built from the RFC 7541 table.
type huffNode struct {
	children [2]*huffNode
	sym      byte
	leaf     bool
}

var huffRoot = buildHuffTree()

func buildHuffTree() *huffNode {
	root := &huffNode{}
	for sym := 0; sym < 256; sym++ {
		code := huffCodes[sym]
		bits := int(huffLens[sym])
		n := root
		for i := bits - 1; i >= 0; i-- {
			b := (code >> uint(i)) & 1
			if n.children[b] == nil {
				n.children[b] = &huffNode{}
			}
			n = n.children[b]
		}
		n.sym = byte(sym)
		n.leaf = true
	}
	return root
}

func huffmanDecodeRef(dst, data []byte) ([]byte, error) {
	out := dst
	n := huffRoot
	depth := 0 // bits consumed on the current partial symbol
	allOnes := true
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bit := (b >> uint(i)) & 1
			if bit == 0 {
				allOnes = false
			}
			n = n.children[bit]
			if n == nil {
				return nil, errHuffman
			}
			depth++
			if n.leaf {
				out = append(out, n.sym)
				n = huffRoot
				depth = 0
				allOnes = true
			}
		}
	}
	// Remaining bits are padding: must be <8 bits, all ones (EOS prefix).
	if depth > 7 {
		return nil, fmt.Errorf("%w: padding longer than 7 bits", errHuffman)
	}
	if depth > 0 && !allOnes {
		return nil, fmt.Errorf("%w: padding not EOS prefix", errHuffman)
	}
	return out, nil
}

// checkHuffmanAgainstRef decodes data with both decoders and requires
// the same verdict — accepted with the same bytes, or rejected with the
// same error text — returning a description of the difference.
func checkHuffmanAgainstRef(data []byte) error {
	prefix := []byte("kept:")
	want, wantErr := huffmanDecodeRef(append([]byte(nil), prefix...), data)
	got, gotErr := huffmanDecodeAppend(append([]byte(nil), prefix...), data)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		return fmt.Errorf("decode %x: table decoder says %v, reference says %v", data, gotErr, wantErr)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, errHuffman) || got != nil {
			return fmt.Errorf("decode %x: table decoder fails with %q (out %x), reference with %q", data, gotErr, got, wantErr)
		}
	case !bytes.Equal(got, want):
		return fmt.Errorf("decode %x: table decoder yields %q, reference %q", data, got, want)
	}
	return nil
}

// TestHuffmanTableMatchesReference compares the table decoder with the
// reference walk on: every single symbol; every pair of symbols, which
// starts every code at every bit offset another code can leave it at;
// every name and value of the static table; hand-picked paddings and EOS
// runs; random strings, encoded and then with one bit flipped, the tail
// cut or a byte of ones added, which is what produces EOS inside a
// string, overlong padding and non-EOS padding; and raw random bytes.
func TestHuffmanTableMatchesReference(t *testing.T) {
	check := func(data []byte) {
		t.Helper()
		if err := checkHuffmanAgainstRef(data); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < 256; a++ {
		one := huffmanEncode(nil, string([]byte{byte(a)}))
		check(one)
		if dec, err := huffmanDecodeAppend(nil, one); err != nil || len(dec) != 1 || dec[0] != byte(a) {
			t.Fatalf("symbol %d decodes to %x, %v", a, dec, err)
		}
		for b := 0; b < 256; b++ {
			check(huffmanEncode(nil, string([]byte{byte(a), byte(b)})))
		}
	}
	for _, hf := range staticTable {
		for _, s := range []string{hf.Name, hf.Value} {
			enc := huffmanEncode(nil, s)
			check(enc)
			if dec, err := huffmanDecodeAppend(nil, enc); err != nil || string(dec) != s {
				t.Fatalf("static table string %q decodes to %q, %v", s, dec, err)
			}
		}
	}
	for _, fixed := range [][]byte{
		nil, {0xff}, {0xfe}, {0xff, 0xff}, {0xff, 0xff, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xfc},
		{0x00}, {0x07}, {0x1f}, {0x3f, 0xff, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xef},
	} {
		check(fixed)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		raw := make([]byte, rng.Intn(24))
		for j := range raw {
			if rng.Intn(4) == 0 {
				raw[j] = byte(rng.Intn(256)) // the long codes
			} else {
				raw[j] = " etaoinshr/.-=;01239%AZ"[rng.Intn(23)]
			}
		}
		enc := huffmanEncode(nil, string(raw))
		check(enc)
		if len(enc) > 0 {
			flipped := append([]byte(nil), enc...)
			flipped[rng.Intn(len(enc))] ^= 1 << uint(rng.Intn(8))
			check(flipped)
			check(enc[:rng.Intn(len(enc))])
			check(append(append([]byte(nil), enc...), 0xff))
		}
		rng.Read(raw)
		check(raw)
	}
}
