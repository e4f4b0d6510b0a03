// Package bdi implements Base-Delta-Immediate (BDI) compression for 64-byte
// memory lines, following Pekhimenko et al., "Base-Delta-Immediate
// Compression: Practical Data Compression for On-Chip Caches" (PACT 2012),
// as configured in the DSN'17 PCM paper (Table I: 64-byte input, 1-40 byte
// output, 1-cycle decompression).
//
// BDI exploits the low dynamic range of the values inside a line: the line
// is split into equal-size segments (8, 4, or 2 bytes), one segment value is
// kept as the base, and the remaining segments are stored as narrow signed
// deltas from that base. Two special encodings handle the all-zero line
// (1 byte) and the line consisting of one repeated 8-byte value (8 bytes).
package bdi

import (
	"encoding/binary"
	"fmt"

	"pcmcomp/internal/block"
)

// Encoding identifies a BDI compression encoding.
type Encoding uint8

// The BDI encodings, ordered roughly by compressed size.
const (
	// EncZeros is the all-zero line, stored as a single zero byte.
	EncZeros Encoding = iota + 1
	// EncRepeat is a line holding one repeated 8-byte value.
	EncRepeat
	// EncB8D1 is base 8 bytes, deltas 1 byte (16 bytes total).
	EncB8D1
	// EncB8D2 is base 8 bytes, deltas 2 bytes (24 bytes total).
	EncB8D2
	// EncB8D4 is base 8 bytes, deltas 4 bytes (40 bytes total).
	EncB8D4
	// EncB4D1 is base 4 bytes, deltas 1 byte (20 bytes total).
	EncB4D1
	// EncB4D2 is base 4 bytes, deltas 2 bytes (36 bytes total).
	EncB4D2
	// EncB2D1 is base 2 bytes, deltas 1 byte (34 bytes total).
	EncB2D1
	// EncUncompressed marks an incompressible line (64 bytes).
	EncUncompressed
)

// String returns the canonical name of the encoding.
func (e Encoding) String() string {
	switch e {
	case EncZeros:
		return "zeros"
	case EncRepeat:
		return "repeat"
	case EncB8D1:
		return "base8-delta1"
	case EncB8D2:
		return "base8-delta2"
	case EncB8D4:
		return "base8-delta4"
	case EncB4D1:
		return "base4-delta1"
	case EncB4D2:
		return "base4-delta2"
	case EncB2D1:
		return "base2-delta1"
	case EncUncompressed:
		return "uncompressed"
	default:
		return fmt.Sprintf("bdi-encoding(%d)", uint8(e))
	}
}

// CompressedSize returns the output size in bytes for a 64-byte input line
// under this encoding.
func (e Encoding) CompressedSize() int {
	switch e {
	case EncZeros:
		return 1
	case EncRepeat:
		return 8
	case EncB8D1:
		return 16
	case EncB8D2:
		return 24
	case EncB8D4:
		return 40
	case EncB4D1:
		return 20
	case EncB4D2:
		return 36
	case EncB2D1:
		return 34
	case EncUncompressed:
		return block.Size
	default:
		return block.Size
	}
}

// baseDelta describes one base-size/delta-size combination, in the order the
// hardware would try them (smallest output first).
var baseDeltas = []struct {
	enc        Encoding
	baseBytes  int
	deltaBytes int
}{
	{EncB8D1, 8, 1},
	{EncB4D1, 4, 1},
	{EncB8D2, 8, 2},
	{EncB2D1, 2, 1},
	{EncB4D2, 4, 2},
	{EncB8D4, 8, 4},
}

// DecompressionCycles is the modeled decompression latency of BDI
// (Table I of the DSN'17 paper).
const DecompressionCycles = 1

// Analyze returns the smallest encoding of the line without materializing
// any output. It is the hardware's candidate race: all geometries are
// size-checked and the smallest fitting one wins (EncUncompressed when
// none fits).
func Analyze(b *block.Block) Encoding {
	if isZero(b) {
		return EncZeros
	}
	if _, ok := repeated8(b); ok {
		return EncRepeat
	}
	best := EncUncompressed
	for _, bd := range baseDeltas {
		if bd.enc.CompressedSize() >= best.CompressedSize() {
			continue
		}
		if fitsBaseDelta(b, bd.baseBytes, bd.deltaBytes) {
			best = bd.enc
		}
	}
	return best
}

// AppendCompress appends the payload of the line under the given encoding
// (as returned by Analyze) to dst and returns the extended slice: the
// original line bytes for EncUncompressed. When dst has capacity, no heap
// allocation occurs.
func AppendCompress(dst []byte, b *block.Block, enc Encoding) []byte {
	switch enc {
	case EncZeros:
		return append(dst, 0)
	case EncRepeat:
		v := b.Word(0)
		return append(dst,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	case EncUncompressed:
		return append(dst, b[:]...)
	}
	for _, bd := range baseDeltas {
		if bd.enc == enc {
			return appendBaseDelta(dst, b, bd.baseBytes, bd.deltaBytes)
		}
	}
	panic(fmt.Sprintf("bdi: AppendCompress with unknown encoding %d", uint8(enc)))
}

// Decompress reconstructs the original 64-byte line from an encoding and its
// payload. It returns an error if the payload length does not match the
// encoding.
func Decompress(enc Encoding, data []byte) (block.Block, error) {
	var out block.Block
	switch enc {
	case EncZeros:
		return out, nil
	case EncRepeat:
		if len(data) < 8 {
			return out, fmt.Errorf("bdi: repeat payload is %d bytes, want 8", len(data))
		}
		for i := 0; i < block.Size; i += 8 {
			copy(out[i:], data[:8])
		}
		return out, nil
	case EncUncompressed:
		if len(data) < block.Size {
			return out, fmt.Errorf("bdi: uncompressed payload is %d bytes, want %d", len(data), block.Size)
		}
		copy(out[:], data[:block.Size])
		return out, nil
	}
	for _, bd := range baseDeltas {
		if bd.enc != enc {
			continue
		}
		if want := bd.enc.CompressedSize(); len(data) < want {
			return out, fmt.Errorf("bdi: %s payload is %d bytes, want %d", enc, len(data), want)
		}
		decodeBaseDelta(&out, data, bd.baseBytes, bd.deltaBytes)
		return out, nil
	}
	return out, fmt.Errorf("bdi: unknown encoding %d", uint8(enc))
}

func isZero(b *block.Block) bool {
	for i := 0; i < 8; i++ {
		if b.Word(i) != 0 {
			return false
		}
	}
	return true
}

func repeated8(b *block.Block) (uint64, bool) {
	v := b.Word(0)
	for i := 1; i < 8; i++ {
		if b.Word(i) != v {
			return 0, false
		}
	}
	return v, true
}

// segment reads the i-th base-size segment of the line as an unsigned value.
func segment(b *block.Block, i, baseBytes int) uint64 {
	off := i * baseBytes
	switch baseBytes {
	case 8:
		return binary.LittleEndian.Uint64(b[off:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(b[off:]))
	default: // 2
		return uint64(binary.LittleEndian.Uint16(b[off:]))
	}
}

// fitsSigned reports whether the signed difference d fits in deltaBytes.
func fitsSigned(d int64, deltaBytes int) bool {
	switch deltaBytes {
	case 1:
		return d >= -128 && d <= 127
	case 2:
		return d >= -32768 && d <= 32767
	default: // 4
		return d >= -(1<<31) && d <= (1<<31)-1
	}
}

// segmentDelta returns the i-th segment's delta from the base, taken modulo
// the base width (two's complement), matching the hardware subtractor;
// decode wraps the same way, so round-trips are exact even when the
// difference crosses the signed boundary.
func segmentDelta(b *block.Block, i, baseBytes int, base uint64) int64 {
	switch baseBytes {
	case 8:
		return int64(segment(b, i, baseBytes) - base)
	case 4:
		return int64(int32(uint32(segment(b, i, baseBytes)) - uint32(base)))
	default:
		return int64(int16(uint16(segment(b, i, baseBytes)) - uint16(base)))
	}
}

// fitsBaseDelta reports whether every segment's delta from the first
// segment fits the given delta width. It is the analysis half of the
// base-delta encoder and allocates nothing.
func fitsBaseDelta(b *block.Block, baseBytes, deltaBytes int) bool {
	n := block.Size / baseBytes
	base := segment(b, 0, baseBytes)
	for i := 0; i < n; i++ {
		if !fitsSigned(segmentDelta(b, i, baseBytes, base), deltaBytes) {
			return false
		}
	}
	return true
}

// appendBaseDelta appends the base-delta payload to dst. Layout: base
// (little-endian, baseBytes) followed by one delta per segment
// (little-endian two's complement, deltaBytes), including the base segment
// itself (whose delta is zero), matching the canonical BDI output sizes.
// The encoding must be known to fit (see fitsBaseDelta).
func appendBaseDelta(dst []byte, b *block.Block, baseBytes, deltaBytes int) []byte {
	n := block.Size / baseBytes
	base := segment(b, 0, baseBytes)
	dst = appendUint(dst, base, baseBytes)
	for i := 0; i < n; i++ {
		dst = appendUint(dst, uint64(segmentDelta(b, i, baseBytes, base)), deltaBytes)
	}
	return dst
}

func appendUint(dst []byte, v uint64, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

func decodeBaseDelta(out *block.Block, data []byte, baseBytes, deltaBytes int) {
	n := block.Size / baseBytes
	base := getUint(data, baseBytes)
	for i := 0; i < n; i++ {
		d := signExtend(getUint(data[baseBytes+i*deltaBytes:], deltaBytes), deltaBytes)
		v := base + uint64(d)
		off := i * baseBytes
		switch baseBytes {
		case 8:
			binary.LittleEndian.PutUint64(out[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(out[off:], uint32(v))
		default:
			binary.LittleEndian.PutUint16(out[off:], uint16(v))
		}
	}
}

func getUint(src []byte, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(src[i]) << (8 * i)
	}
	return v
}

func signExtend(v uint64, n int) int64 {
	shift := 64 - 8*n
	return int64(v<<shift) >> shift
}
