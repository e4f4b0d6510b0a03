// Package secded implements the (72,64) single-error-correct /
// double-error-detect Hsiao code used by conventional ECC-DIMM DRAM — the
// scheme the DSN'17 paper argues is a poor fit for PCM (§II-C): its check
// bits are rewritten by nearly every data update, so the ECC chip's cells
// wear out faster than the data chips', and it corrects only one stuck
// cell per 72-bit beat while PCM accumulates faults over time.
//
// The package provides both the real codec (encode, syndrome decode,
// single-bit correction, double-bit detection) and an ecc.Scheme adapter
// so SECDED can stand in for ECP/SAFER/Aegis in the lifetime simulator —
// reproducing the paper's argument quantitatively (see the wear-ratio
// tests and the CheckBitFlips helper).
package secded

import (
	"math/bits"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
)

// columns holds the 8-bit parity-check column of each of the 64 data bits.
// Hsiao construction: all columns have odd weight (so single data errors
// are distinguishable from single check errors, whose columns are unit
// vectors) and are pairwise distinct: the 56 weight-3 columns plus the
// first 8 weight-5 columns.
var columns = buildColumns()

func buildColumns() [64]uint8 {
	var cols [64]uint8
	n := 0
	for w := 0; w < 256 && n < 64; w++ {
		v := uint8(w)
		if bits.OnesCount8(v) == 3 {
			cols[n] = v
			n++
		}
	}
	for w := 0; w < 256 && n < 64; w++ {
		v := uint8(w)
		if bits.OnesCount8(v) == 5 {
			cols[n] = v
			n++
		}
	}
	return cols
}

// Encode returns the 8 check bits protecting the 64-bit data beat.
func Encode(data uint64) uint8 {
	var check uint8
	for d := data; d != 0; d &= d - 1 {
		check ^= columns[bits.TrailingZeros64(d)]
	}
	return check
}

// Status classifies a decode outcome.
type Status int

// Decode outcomes.
const (
	// StatusOK: no error.
	StatusOK Status = iota + 1
	// StatusCorrectedData: one data bit was flipped back.
	StatusCorrectedData
	// StatusCorrectedCheck: one check bit was wrong; data untouched.
	StatusCorrectedCheck
	// StatusUncorrectable: a multi-bit error was detected.
	StatusUncorrectable
)

// Decode checks a (data, check) pair, correcting a single-bit error.
func Decode(data uint64, check uint8) (uint64, Status) {
	syndrome := Encode(data) ^ check
	if syndrome == 0 {
		return data, StatusOK
	}
	if bits.OnesCount8(syndrome) == 1 {
		// Unit syndrome: the error is in that check bit.
		return data, StatusCorrectedCheck
	}
	for i, col := range columns {
		if col == syndrome {
			return data ^ 1<<uint(i), StatusCorrectedData
		}
	}
	// Even-weight or unmatched syndrome: >= 2 errors.
	return data, StatusUncorrectable
}

// Scheme adapts SECDED to the simulator's position-based hard-error
// interface: a write is storable iff every 64-bit beat its window touches
// has at most one stuck data cell (SEC corrects exactly one per beat;
// stuck check-bit cells are not modeled positionally).
type Scheme struct{}

var _ ecc.Scheme = Scheme{}

// Name implements ecc.Scheme.
func (Scheme) Name() string { return "SECDED-72/64" }

// Correctable implements ecc.Scheme.
func (Scheme) Correctable(faults *ecc.FaultSet, startByte, lengthBytes int) bool {
	// Stack buffer: like the SAFER/Aegis kernels, the index enumeration
	// must stay off the heap — the Monte-Carlo scan calls Correctable on
	// every placement trial.
	var buf [block.Bits]int
	idx := faults.AppendIndicesInWindow(buf[:0], startByte, lengthBytes)
	var perBeat [block.Size / 8]int
	for _, cell := range idx {
		beat := cell / 64
		perBeat[beat]++
		if perBeat[beat] > 1 {
			return false
		}
	}
	return true
}

// CorrectableBounds implements ecc.Scheme: one fault always
// fits its beat's single-error budget, and with more faults than beats some
// beat must hold two (the window never spans more than the line's 8 beats).
func (Scheme) CorrectableBounds() (always, never int) { return 1, block.Size / 8 }

// MetadataBits implements ecc.Scheme: 8 check bits per 64-bit beat fills
// the whole ECC chip share (the 12.5% overhead of a standard ECC-DIMM).
func (Scheme) MetadataBits() int { return block.Size }

// CheckBitFlips returns how many check bits change when a beat's data goes
// from old to new — the ECC-chip write traffic a data update induces. The
// paper's §II-C argument is quantitative here: a single data-bit flip
// flips 3 or 5 check bits (odd-weight columns), so the 8 check cells of a
// beat absorb updates from all 64 data cells and wear out many times
// faster per cell.
func CheckBitFlips(old, new uint64) int {
	return bits.OnesCount8(Encode(old) ^ Encode(new))
}
