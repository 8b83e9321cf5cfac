package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
)

// Append-style payload primitives and the matching sticky-error Reader.
// Jobs in internal/core compose these into per-unit result payloads;
// the framing in shard.go carries the composed bytes. All encodings
// are deterministic and every decoder bounds list lengths by the bytes
// actually remaining, so corrupt input errors out instead of
// allocating or truncating silently.

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// appendVarint appends v as a zig-zag varint.
func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// appendDuration appends d as a varint of nanoseconds.
func appendDuration(b []byte, d time.Duration) []byte { return binary.AppendVarint(b, int64(d)) }

// appendFloat64 appends v as its fixed 8-byte little-endian IEEE 754
// bits — bit-exact, so decoded floats compare equal to the originals.
func appendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendBytes appends a uvarint length followed by the raw bytes.
func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendString appends s as a length-prefixed byte string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat64s appends a uvarint count followed by each value.
func AppendFloat64s(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendFloat64(b, v)
	}
	return b
}

// AppendInt64s appends a uvarint count followed by each value.
func AppendInt64s(b []byte, vs []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// appendStrings appends a uvarint count followed by each string.
func appendStrings(b []byte, vs []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendString(b, v)
	}
	return b
}

// appendRows appends a table fragment: uvarint row count, then each
// row as a string list.
func appendRows(b []byte, rows [][]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		b = appendStrings(b, row)
	}
	return b
}

// appendSample appends s's wire form (see metrics.Sample.AppendBinary).
func appendSample(b []byte, s *metrics.Sample) []byte { return s.AppendBinary(b) }

// AppendSketch appends k's wire form (see metrics.Sketch.AppendBinary).
func AppendSketch(b []byte, k *metrics.Sketch) []byte { return k.AppendBinary(b) }

var (
	errTruncated = errors.New("shard: truncated payload")
	errTrailing  = errors.New("shard: trailing bytes after payload")
)

// Reader decodes a payload built with the Append functions. Decode
// errors are sticky: after the first failure every subsequent call
// returns a zero value and Err/Close report the original error, so a
// decode sequence can run unchecked and be validated once at the end.
// Close additionally rejects unconsumed trailing bytes.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader decoding from b. The Reader aliases b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Close validates that the payload decoded cleanly and completely:
// it returns the first decode error, or errTrailing if bytes remain.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w (%d bytes)", errTrailing, len(r.b))
	}
	return nil
}

// uvarint decodes a uvarint.
func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint decodes a zig-zag varint.
func (r *Reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// duration decodes a varint of nanoseconds.
func (r *Reader) duration() time.Duration { return time.Duration(r.varint()) }

// float64 decodes a fixed 8-byte little-endian IEEE 754 value.
func (r *Reader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// bytes decodes a length-prefixed byte string. The result aliases the
// input payload.
func (r *Reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail(fmt.Errorf("shard: byte string length %d exceeds payload", n))
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// String decodes a length-prefixed string.
func (r *Reader) String() string { return string(r.bytes()) }

// count decodes a uvarint list length and validates it against the
// bytes remaining, given that each element occupies at least
// minElemBytes (use 1 for varint-encoded elements). This keeps a
// corrupt length from sizing a huge allocation.
func (r *Reader) count(minElemBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(len(r.b)/minElemBytes) {
		r.fail(fmt.Errorf("shard: list length %d exceeds payload", n))
		return 0
	}
	return int(n)
}

// Float64s decodes a list written by AppendFloat64s. Returns nil for
// an empty list.
func (r *Reader) Float64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.float64()
	}
	return vs
}

// Int64s decodes a list written by AppendInt64s. Returns nil for an
// empty list.
func (r *Reader) Int64s() []int64 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.varint()
	}
	return vs
}

// strings decodes a list written by AppendStrings. Returns nil for an
// empty list.
func (r *Reader) strings() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]string, n)
	for i := range vs {
		vs[i] = r.String()
	}
	return vs
}

// rows decodes a table fragment written by AppendRows. Returns nil for
// an empty fragment.
func (r *Reader) rows() [][]string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = r.strings()
	}
	return rows
}

// sample decodes a metrics.Sample written by AppendSample.
func (r *Reader) sample() metrics.Sample {
	if r.err != nil {
		return metrics.Sample{}
	}
	var s metrics.Sample
	rest, err := s.DecodeBinary(r.b)
	if err != nil {
		r.fail(err)
		return metrics.Sample{}
	}
	r.b = rest
	return s
}

// Sketch decodes a metrics.Sketch written by AppendSketch.
func (r *Reader) Sketch() metrics.Sketch {
	if r.err != nil {
		return metrics.Sketch{}
	}
	var k metrics.Sketch
	rest, err := k.DecodeBinary(r.b)
	if err != nil {
		r.fail(err)
		return metrics.Sketch{}
	}
	r.b = rest
	return k
}
