// Package ecc defines the hard-error tolerance abstraction shared by the
// error-correction schemes the DSN'17 paper evaluates (ECP-6, SAFER-32,
// Aegis 17x31), together with the fault-set representation the lifetime
// simulator and the Monte-Carlo study inject stuck-at faults into.
//
// PCM hard errors are stuck-at faults: a worn-out cell can still be read but
// no longer programmed. All three schemes therefore only need to know the
// *positions* of the faulty cells to decide whether a write can be stored;
// correction itself (replacement bits for ECP, group inversion for SAFER and
// Aegis) always succeeds once the position constraint holds.
package ecc

import (
	"encoding/binary"
	"math/bits"

	"pcmcomp/internal/block"
)

// FaultSet records which of the 512 cells of a memory line are stuck.
// The zero value is an empty fault set, ready to use.
type FaultSet struct {
	words [block.Bits / 64]uint64
}

// Add marks cell i (0 <= i < block.Bits) as faulty.
func (f *FaultSet) Add(i int) {
	f.words[i>>6] |= 1 << (uint(i) & 63)
}

// Remove clears the fault at cell i (used by dead-line resurrection tests
// and recoverable stuck-at-SET experiments).
func (f *FaultSet) Remove(i int) {
	f.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Contains reports whether cell i is faulty.
func (f *FaultSet) Contains(i int) bool {
	return f.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the total number of faulty cells.
func (f *FaultSet) Count() int {
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear removes all faults.
func (f *FaultSet) Clear() {
	f.words = [block.Bits / 64]uint64{}
}

// CountInByteWindow returns the number of faulty cells whose positions fall
// within the byte window of lengthBytes starting at startByte. Windows wrap
// around the end of the 64-byte line (the intra-line wear-leveling rotation
// slides compression windows past the line boundary); lengthBytes must not
// exceed the line size.
func (f *FaultSet) CountInByteWindow(startByte, lengthBytes int) int {
	if startByte+lengthBytes <= block.Size {
		return f.countRange(startByte, lengthBytes)
	}
	head := block.Size - startByte
	return f.countRange(startByte, head) + f.countRange(0, lengthBytes-head)
}

// countRange counts faults in the non-wrapping byte range [startByte,
// startByte+lengthBytes).
func (f *FaultSet) countRange(startByte, lengthBytes int) int {
	if lengthBytes <= 0 {
		return 0
	}
	start := startByte * 8
	end := start + lengthBytes*8
	n := 0
	for w := start >> 6; w <= (end-1)>>6 && w < len(f.words); w++ {
		v := f.words[w]
		lo := w << 6
		if start > lo {
			v &= ^uint64(0) << (uint(start-lo) & 63)
		}
		if end < lo+64 {
			v &= 1<<(uint(end-lo)&63) - 1
		}
		n += bits.OnesCount64(v)
	}
	return n
}

// ByteCounts writes the per-byte fault counts of the line into dst:
// dst[i] is the number of faulty cells among bits 8i..8i+7. One pass of
// SWAR popcounts per bitmap word, so a Monte-Carlo trial can derive the
// fault count of every sliding byte window from 64 table lookups instead
// of a masked popcount per window.
func (f *FaultSet) ByteCounts(dst *[block.Size]uint8) {
	for w, v := range f.words {
		// Classic parallel popcount, stopped at the per-byte stage: after
		// the three reductions every byte of v holds its own bit count.
		v -= (v >> 1) & 0x5555555555555555
		v = v&0x3333333333333333 + (v>>2)&0x3333333333333333
		v = (v + v>>4) & 0x0f0f0f0f0f0f0f0f
		binary.LittleEndian.PutUint64(dst[w*8:w*8+8], v)
	}
}

// AppendIndicesInWindow appends to dst the cell indices of faults within the
// byte window of lengthBytes starting at startByte, and returns dst. Like
// CountInByteWindow, the window wraps around the line end; when it wraps,
// indices from the tail of the line precede those from its head (callers in
// the ECC schemes are order-insensitive).
func (f *FaultSet) AppendIndicesInWindow(dst []int, startByte, lengthBytes int) []int {
	if startByte+lengthBytes <= block.Size {
		return f.appendRange(dst, startByte, lengthBytes)
	}
	head := block.Size - startByte
	dst = f.appendRange(dst, startByte, head)
	return f.appendRange(dst, 0, lengthBytes-head)
}

func (f *FaultSet) appendRange(dst []int, startByte, lengthBytes int) []int {
	if lengthBytes <= 0 {
		return dst
	}
	start := startByte * 8
	end := start + lengthBytes*8
	for w := start >> 6; w <= (end-1)>>6 && w < len(f.words); w++ {
		v := f.words[w]
		lo := w << 6
		if start > lo {
			v &= ^uint64(0) << (uint(start-lo) & 63)
		}
		if end < lo+64 {
			v &= 1<<(uint(end-lo)&63) - 1
		}
		for v != 0 {
			dst = append(dst, lo+bits.TrailingZeros64(v))
			v &= v - 1
		}
	}
	return dst
}

// Indices returns all faulty cell indices, ascending.
func (f *FaultSet) Indices() []int {
	return f.AppendIndicesInWindow(nil, 0, block.Size)
}

// Word returns the i-th 64-bit chunk of the bitmap (cells 64*i..64*i+63).
// The write path uses it to mask whole words at a time instead of probing
// cells one by one.
func (f *FaultSet) Word(i int) uint64 { return f.words[i] }

// SetWords replaces the whole bitmap (the fuzz targets build fault sets
// from raw words).
func (f *FaultSet) SetWords(w [block.Bits / 64]uint64) { f.words = w }

// Scheme is a hard-error tolerance mechanism. Implementations decide, from
// fault positions alone, whether data occupying a given byte window of the
// line can still be stored and read back correctly.
type Scheme interface {
	// Name returns the scheme's short name for reports.
	Name() string
	// Correctable reports whether data occupying the byte window of
	// lengthBytes starting at startByte (wrapping around the line end)
	// of a line with the given faults can be stored despite them. Faults
	// outside the window are ignored: cells there hold no data.
	Correctable(faults *FaultSet, startByte, lengthBytes int) bool
	// MetadataBits returns the per-line correction-metadata budget in bits.
	// All schemes in the paper fit the 64-bit ECC chip share of a line.
	MetadataBits() int
}

// CorrectabilityBounds is optionally implemented by schemes whose
// Correctable decision admits count-only screening. It lets bulk callers
// decide most windows from the fault count alone and reserve the full
// Correctable call for the ambiguous band in between. The Monte-Carlo
// kernel (montecarlo.Runner) uses it three times: its placement scan
// screens each window origin; its mean-window screen returns 0 for a whole
// failure-probability point, without drawing a trial, when the mean fault
// count over its windows is below always+1; and its all-fail screen
// returns 1 for a point, again without a trial, when even the faults that
// cannot fall outside a window exceed never.
type CorrectabilityBounds interface {
	// CorrectableBounds returns (always, never): a window holding at most
	// `always` faults is always correctable, and one holding more than
	// `never` faults never is. Implementations must keep both bounds
	// consistent with Correctable — the fast path substitutes them for it.
	CorrectableBounds() (always, never int)
}
