// Package encode implements write-encoding stages for the PCM write path:
// transforms applied to a write's data — relative to the cells' current
// content — that reduce programming cost, at the price of a few auxiliary
// metadata bits per word recording which transform was chosen.
//
// Two encoders from the retrieved related work are provided:
//
//   - Coset: word-level restricted coset coding (Seyedzadeh et al.) — each
//     32-bit word is XORed with one of k candidate masks and the mask
//     minimizing bit flips is kept. The identity mask is always candidate
//     0, so an encoded write never flips more cells than the plain write.
//   - Wire: WIRE-style flip-minimizing encoding (Desai et al.) — each
//     16-bit word is stored as-is or complemented, whichever costs less
//     write energy under the asymmetric SET/RESET pulse energies.
//
// Encoders are allocation-free: callers pass the data, the current cell
// content, and a selector scratch slice; Encode rewrites the data in place
// and records one selector per word. Decode inverts the transform from the
// selectors. In the simulator the selectors model the per-line auxiliary
// metadata a real implementation stores in the ECC chip's spare bits.
//
// Every stage works on whole machine words, not bytes: a coset word is
// scored with one popcount per complementary mask pair, a WIRE word with
// three, and Flips/Pulses count 64 bits at a time. Only a partial last
// word is gathered byte by byte.
package encode

import (
	"encoding/binary"
	"math/bits"
)

// le reads and writes transform words; byte j of a word is its bits
// 8j..8j+7, the lane order every encoder and its Decode share.
var le = binary.LittleEndian

// Encoder is one write-encoding stage.
type Encoder interface {
	// Name is the registry spelling (e.g. "coset4", "wire").
	Name() string
	// WordBytes is the transform granularity in bytes.
	WordBytes() int
	// AuxBitsPerWord is the selector width: the metadata cost per word.
	AuxBitsPerWord() int
	// Encode rewrites buf in place given the cells' current content old
	// (same length), recording the per-word transform choice in sel. sel
	// must have at least ceil(len(buf)/WordBytes()) entries.
	Encode(buf, old []byte, sel []uint8)
	// Decode inverts Encode in place using the recorded selectors.
	Decode(buf []byte, sel []uint8)
}

// Words returns how many transform words an n-byte buffer spans for the
// given word size (the last word may be partial).
func Words(n, wordBytes int) int {
	return (n + wordBytes - 1) / wordBytes
}

// Flips counts the differing bits between two equal-length byte slices —
// the cells a differential write of new over old would program. It works
// on 64-bit words, with a byte tail.
func Flips(a, b []byte) int {
	n, i := 0, 0
	for ; i+8 <= len(a); i += 8 {
		n += bits.OnesCount64(le.Uint64(a[i:]) ^ le.Uint64(b[i:]))
	}
	for ; i < len(a); i++ {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// Pulses splits a differential write's programmed cells into SET (0->1)
// and RESET (1->0) pulse counts. It works on 64-bit words, with a byte
// tail.
func Pulses(old, new []byte) (sets, resets int) {
	i := 0
	for ; i+8 <= len(old); i += 8 {
		o, n := le.Uint64(old[i:]), le.Uint64(new[i:])
		sets += bits.OnesCount64(n &^ o)
		resets += bits.OnesCount64(o &^ n)
	}
	for ; i < len(old); i++ {
		sets += bits.OnesCount8(new[i] &^ old[i])
		resets += bits.OnesCount8(old[i] &^ new[i])
	}
	return sets, resets
}
