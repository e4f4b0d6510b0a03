package encode

import (
	"math/bits"

	"pcmcomp/internal/pcm"
)

// Wire implements WIRE-style flip-minimizing write encoding: each 16-bit
// word is stored either as-is or complemented, whichever write costs less
// energy under the asymmetric SET/RESET pulse energies (RESET pulses are
// the expensive ones, so trading resets for sets can pay even when it
// programs more cells). One auxiliary bit per word records the choice.
// Ties resolve to identity, so the encoded write's energy never exceeds
// the unencoded write's.
type Wire struct {
	model pcm.EnergyModel
}

// NewWire builds a WIRE encoder over the given pulse-energy model.
func NewWire(model pcm.EnergyModel) *Wire { return &Wire{model: model} }

func (w *Wire) Name() string        { return "wire" }
func (w *Wire) WordBytes() int      { return 2 }
func (w *Wire) AuxBitsPerWord() int { return 1 }

// Encode complements each (possibly partial) 2-byte word of buf when the
// complemented differential write against old costs less energy.
func (w *Wire) Encode(buf, old []byte, sel []uint8) {
	for i := 0; i < len(buf); i += 2 {
		var o, n uint16
		width := 16
		if i+2 <= len(buf) {
			o, n = le.Uint16(old[i:]), le.Uint16(buf[i:])
		} else {
			o, n, width = uint16(old[i]), uint16(buf[i]), 8
		}
		// The complement write pulses exactly the cells the identity write
		// leaves alone: it SETs the old zeros the identity does not, and
		// RESETs the old ones the identity does not. A partial word's high
		// byte is zero in both o and n, so it adds nothing.
		sets := bits.OnesCount16(n &^ o)
		resets := bits.OnesCount16(o &^ n)
		ones := bits.OnesCount16(o)
		zeros := width - ones
		sel[i/2] = 0
		if w.model.WriteEnergyPJ(zeros-sets, ones-resets) < w.model.WriteEnergyPJ(sets, resets) {
			sel[i/2] = 1
			complementWord(buf[i:min(i+2, len(buf))])
		}
	}
}

// complementWord inverts the bytes of one (possibly partial) word.
func complementWord(b []byte) {
	for j := range b {
		b[j] = ^b[j]
	}
}

// Decode re-complements the words whose selector bit is set.
func (w *Wire) Decode(buf []byte, sel []uint8) {
	for i := 0; i < len(buf); i += 2 {
		if sel[i/2] != 0 {
			complementWord(buf[i:min(i+2, len(buf))])
		}
	}
}
