// Package block provides the 64-byte memory-line abstraction used across the
// simulator, together with the bit-level arithmetic (Hamming distance, bit
// extraction, windowed comparison) that the differential-write engine, the
// error-correction schemes and the compression-window controller rely on.
//
// A memory line in the modeled PCM DIMM is 64 data bytes (512 cells); the
// ninth chip of the rank holds 64 additional ECC/metadata bits per line,
// which are modeled separately (see internal/pcm and internal/core).
package block

import (
	"encoding/binary"
	"math/bits"
)

// Size is the memory line size in bytes (one LLC cache line).
const Size = 64

// Bits is the number of data cells in a line.
const Bits = Size * 8

// Block is one 64-byte memory line. It is a value type; assignment copies.
type Block [Size]byte

// Word returns the i-th 64-bit little-endian word of the block (i in [0,8)).
func (b *Block) Word(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }

// SetWord stores w as the i-th 64-bit little-endian word of the block.
func (b *Block) SetWord(i int, w uint64) { binary.LittleEndian.PutUint64(b[i*8:], w) }

// Bit returns the value of bit i (0 <= i < Bits). Bit 0 is the least
// significant bit of byte 0.
func (b *Block) Bit(i int) bool {
	return b[i>>3]&(1<<(uint(i)&7)) != 0
}

// SetBit sets bit i to v.
func (b *Block) SetBit(i int, v bool) {
	if v {
		b[i>>3] |= 1 << (uint(i) & 7)
	} else {
		b[i>>3] &^= 1 << (uint(i) & 7)
	}
}

// HammingDistance returns the number of bit positions at which a and b
// differ. Under differential writes, this is exactly the number of cell
// programs required to overwrite a with b.
func HammingDistance(a, b *Block) int {
	n := 0
	for i := 0; i < 8; i++ {
		n += bits.OnesCount64(a.Word(i) ^ b.Word(i))
	}
	return n
}

// HammingDistanceWindow returns the Hamming distance between a and b
// restricted to the byte window [start, start+length).
func HammingDistanceWindow(a, b *Block, start, length int) int {
	n := 0
	for i := start; i < start+length; i++ {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// Equal reports whether two blocks hold identical contents.
func Equal(a, b *Block) bool { return *a == *b }

// String renders the block as grouped hexadecimal bytes for debugging.
func (b *Block) String() string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 0, Size*3)
	for i, v := range b {
		if i > 0 {
			if i%16 == 0 {
				out = append(out, '\n')
			} else {
				out = append(out, ' ')
			}
		}
		out = append(out, hexdigits[v>>4], hexdigits[v&0xf])
	}
	return string(out)
}
