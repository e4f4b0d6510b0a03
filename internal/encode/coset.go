package encode

import (
	"fmt"
	"math/bits"
)

// cosetMasks is the fixed candidate-mask family, identity first. The
// restricted coset construction picks masks that cover the common failure
// patterns of differential writes: all-ones catches near-complement
// updates, the alternating masks catch toggling low bits, and the
// half-word masks (k=8) catch updates confined to one 16-bit half or to
// alternating bytes.
var cosetMasks = [8]uint32{
	0x00000000, 0xFFFFFFFF, 0xAAAAAAAA, 0x55555555,
	0xFFFF0000, 0x0000FFFF, 0xFF00FF00, 0x00FF00FF,
}

// Coset implements word-level restricted coset coding: each 32-bit word is
// XORed with the one of its k candidate masks that minimizes bit flips
// against the cells' current content. log2(k) auxiliary bits per word
// record the choice. Because the identity mask is candidate 0 and ties
// resolve to the lowest index, an encoded write never programs more cells
// than the unencoded write would.
type Coset struct {
	k    int
	name string
}

// NewCoset builds a coset encoder with k candidate masks per word
// (k must be 2, 4, or 8; the aux cost is log2(k) bits per 32-bit word).
func NewCoset(k int) (*Coset, error) {
	switch k {
	case 2, 4, 8:
		return &Coset{k: k, name: fmt.Sprintf("coset%d", k)}, nil
	default:
		return nil, fmt.Errorf("encode: coset k must be 2, 4, or 8, got %d", k)
	}
}

func (c *Coset) Name() string   { return c.name }
func (c *Coset) WordBytes() int { return 4 }
func (c *Coset) AuxBitsPerWord() int {
	return bits.Len(uint(c.k - 1))
}

// Encode XORs each (possibly partial) 4-byte word of buf with its
// flip-minimizing candidate mask, given the current cell content old.
func (c *Coset) Encode(buf, old []byte, sel []uint8) {
	full := len(buf) &^ 3
	for i := 0; i < full; i += 4 {
		d := le.Uint32(buf[i:]) ^ le.Uint32(old[i:])
		m := c.choose(d, 32)
		if m != 0 {
			le.PutUint32(buf[i:], le.Uint32(buf[i:])^cosetMasks[m])
		}
		sel[i/4] = uint8(m)
	}
	if full == len(buf) {
		return
	}
	// Partial last word: gather its bytes' differences into the low lanes.
	var d uint32
	for j := full; j < len(buf); j++ {
		d |= uint32(buf[j]^old[j]) << (8 * uint(j-full))
	}
	m := c.choose(d, 8*(len(buf)-full))
	xorMaskTail(buf[full:], cosetMasks[m])
	sel[full/4] = uint8(m)
}

// choose returns the lowest-index candidate mask minimizing the flips of
// a word whose differing bits against the cells are d, counted over the
// low width bits (d has no bits above them). The masks come in
// complementary pairs (2p, 2p+1), and within width bits the complement
// flips exactly the bits the mask keeps, so one popcount scores a pair.
func (c *Coset) choose(d uint32, width int) int {
	keep := uint32(1<<uint(width) - 1) // 1<<32 wraps to 0: all ones
	best, bestFlips := 0, width+1
	for m := 0; m < c.k; m += 2 {
		f := bits.OnesCount32((d ^ cosetMasks[m]) & keep)
		if f < bestFlips {
			best, bestFlips = m, f
		}
		if width-f < bestFlips {
			best, bestFlips = m+1, width-f
		}
	}
	return best
}

// xorMaskTail XORs the bytes of a partial word with the matching lanes of
// mask.
func xorMaskTail(b []byte, mask uint32) {
	for j := range b {
		b[j] ^= byte(mask >> (8 * uint(j)))
	}
}

// Decode re-XORs each word with its recorded mask.
func (c *Coset) Decode(buf []byte, sel []uint8) {
	full := len(buf) &^ 3
	for i := 0; i < full; i += 4 {
		if m := sel[i/4]; m != 0 {
			le.PutUint32(buf[i:], le.Uint32(buf[i:])^cosetMasks[m])
		}
	}
	if full < len(buf) {
		xorMaskTail(buf[full:], cosetMasks[sel[full/4]])
	}
}
