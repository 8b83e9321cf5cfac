package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Binary codecs for Sketch and Sample, framed by internal/shard. Their
// only remaining consumer is bench/, which measures the codec's
// throughput; no experiment driver serializes results. This package
// owns their wire forms because both types keep their state unexported.
//
// Both codecs are deterministic — the same state always encodes to the
// same bytes — and both decoders are strict: every length is bounded
// by the bytes actually present, internal invariants (bucket sums,
// min/max ordering, compacted-count agreement) are re-checked, and any
// violation is an error, never a silently truncated value.

var errCodecTruncated = errors.New("metrics: truncated codec payload")

// maxSketchBuckets bounds a decoded sketch's dense bucket array. With
// gamma ≈ 1.02 the full time.Duration range spans ~3000 buckets, so
// the cap is generous for real sketches while keeping corrupt input
// from forcing large allocations.
const maxSketchBuckets = 1 << 20

func consumeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errCodecTruncated
	}
	return v, b[n:], nil
}

func consumeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errCodecTruncated
	}
	return v, b[n:], nil
}

// AppendBinary appends the sketch's wire form to b and returns the
// extended slice. The encoding is deterministic in the sketch's
// logical content plus its dense-array bounds (base, length), which
// are themselves deterministic in the insertion/merge history.
func (k *Sketch) AppendBinary(b []byte) []byte {
	b = binary.AppendVarint(b, k.n)
	b = binary.AppendVarint(b, k.zero)
	b = binary.AppendVarint(b, int64(k.min))
	b = binary.AppendVarint(b, int64(k.max))
	b = binary.AppendVarint(b, int64(k.base))
	b = binary.AppendUvarint(b, uint64(len(k.counts)))
	for _, c := range k.counts {
		b = binary.AppendVarint(b, c)
	}
	return b
}

// DecodeBinary replaces k with the sketch encoded at the front of b
// and returns the remaining bytes. Corrupt input — truncation, counts
// that do not sum to n, negative counters, inverted min/max — is an
// error and leaves k unspecified.
func (k *Sketch) DecodeBinary(b []byte) ([]byte, error) {
	var n, zero, mn, mx, base int64
	var err error
	for _, dst := range []*int64{&n, &zero, &mn, &mx, &base} {
		if *dst, b, err = consumeVarint(b); err != nil {
			return nil, fmt.Errorf("sketch: %w", err)
		}
	}
	nb, b, err := consumeUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	// Each count occupies at least one byte, so a valid length never
	// exceeds the bytes remaining.
	if nb > maxSketchBuckets || nb > uint64(len(b)) {
		return nil, fmt.Errorf("metrics: sketch bucket count %d exceeds payload", nb)
	}
	var counts []int64
	if nb > 0 {
		counts = make([]int64, nb)
	}
	sum := zero
	for i := range counts {
		if counts[i], b, err = consumeVarint(b); err != nil {
			return nil, fmt.Errorf("sketch: %w", err)
		}
		if counts[i] < 0 {
			return nil, fmt.Errorf("metrics: sketch bucket %d has negative count %d", i, counts[i])
		}
		sum += counts[i]
	}
	switch {
	case n < 0 || zero < 0:
		return nil, fmt.Errorf("metrics: sketch has negative population (n=%d zero=%d)", n, zero)
	case sum != n:
		return nil, fmt.Errorf("metrics: sketch counts sum to %d, header says %d", sum, n)
	case n > 0 && mn > mx:
		return nil, fmt.Errorf("metrics: sketch min %d above max %d", mn, mx)
	case n == 0 && (mn != 0 || mx != 0 || base != 0 || nb != 0):
		return nil, errors.New("metrics: empty sketch carries state")
	case nb == 0 && base != 0:
		return nil, errors.New("metrics: sketch base without buckets")
	}
	*k = Sketch{
		counts: counts,
		base:   int(base),
		zero:   zero,
		n:      n,
		min:    time.Duration(mn),
		max:    time.Duration(mx),
	}
	return b, nil
}

// Sample wire modes: a raw sample ships its values verbatim; a
// compacted one ships the frozen exact statistics plus its sketch.
const (
	sampleModeRaw       = 0
	sampleModeCompacted = 1
)

// AppendBinary appends the sample's wire form to b and returns the
// extended slice. Raw and compacted samples round-trip to equal state:
// a decoded raw sample answers every query like the original (the
// sorted cache is rebuilt lazily), and a decoded compacted sample
// carries the same frozen statistics and sketch.
func (s *Sample) AppendBinary(b []byte) []byte {
	if s.sketch != nil {
		b = append(b, sampleModeCompacted)
		b = binary.AppendUvarint(b, uint64(s.compactN))
		b = binary.AppendVarint(b, int64(s.compMedian))
		b = binary.AppendVarint(b, int64(s.compMean))
		b = binary.AppendVarint(b, int64(s.compStd))
		return s.sketch.AppendBinary(b)
	}
	b = append(b, sampleModeRaw)
	b = binary.AppendUvarint(b, uint64(len(s.Values)))
	for _, v := range s.Values {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// DecodeBinary replaces s with the sample encoded at the front of b
// and returns the remaining bytes. A compacted payload whose count
// disagrees with its sketch population is rejected.
func (s *Sample) DecodeBinary(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("sample: %w", errCodecTruncated)
	}
	mode := b[0]
	b = b[1:]
	switch mode {
	case sampleModeRaw:
		n, rest, err := consumeUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("sample: %w", err)
		}
		b = rest
		if n > uint64(len(b)) { // every value is at least one byte
			return nil, fmt.Errorf("metrics: sample length %d exceeds payload", n)
		}
		var vals []time.Duration
		if n > 0 {
			vals = make([]time.Duration, n)
		}
		for i := range vals {
			var v int64
			if v, b, err = consumeVarint(b); err != nil {
				return nil, fmt.Errorf("sample: %w", err)
			}
			vals[i] = time.Duration(v)
		}
		*s = Sample{Values: vals}
		return b, nil
	case sampleModeCompacted:
		cn, rest, err := consumeUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("sample: %w", err)
		}
		b = rest
		if cn > math.MaxInt32 {
			return nil, fmt.Errorf("metrics: compacted sample count %d implausible", cn)
		}
		var med, mean, std int64
		for _, dst := range []*int64{&med, &mean, &std} {
			if *dst, b, err = consumeVarint(b); err != nil {
				return nil, fmt.Errorf("sample: %w", err)
			}
		}
		sk := &Sketch{}
		if b, err = sk.DecodeBinary(b); err != nil {
			return nil, err
		}
		if sk.n != int64(cn) {
			return nil, fmt.Errorf("metrics: compacted sample count %d disagrees with sketch population %d", cn, sk.n)
		}
		*s = Sample{
			sketch:     sk,
			compactN:   int(cn),
			compMedian: time.Duration(med),
			compMean:   time.Duration(mean),
			compStd:    time.Duration(std),
		}
		return b, nil
	}
	return nil, fmt.Errorf("metrics: unknown sample mode 0x%02x", mode)
}
