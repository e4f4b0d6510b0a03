// Package safer implements the SAFER stuck-at-fault recovery scheme of
// Seong et al., "SAFER: Stuck-At-Fault Error Recovery for Memories"
// (MICRO 2010), in the SAFER-32 configuration the DSN'17 paper evaluates.
//
// SAFER-2^k dynamically partitions the 512-bit line into 2^k groups by
// selecting k of the 9 cell-index bits: a cell belongs to the group formed
// by the values of its index at the selected bit positions. Each group
// carries one flip bit, so a group containing at most one stuck cell can
// always be stored (write the data or its complement so the stuck cell
// matches). A line is recoverable iff some selection of k index bits puts
// every faulty data cell into a distinct group. SAFER-32 (k = 5)
// deterministically corrects 6 faults and probabilistically up to 32.
//
// Correctability is decided pairwise: faulty cells i and j share a group
// under selection S iff (i^j)&S == 0, so each pair spoils a fixed set of
// selections, and the line is recoverable iff the pairs leave one unspoiled.
package safer

import (
	"math/bits"
	"strconv"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
)

const indexBits = 9 // 512-cell line => 9-bit cell index

// Scheme is the SAFER-2^k recovery scheme. Construct with New.
type Scheme struct {
	k int
	// spoils[d] is the set of k-bit selections (numbered in increasing
	// mask order, at most C(9,4) = 126 of them) under which two cells
	// whose indices differ by XOR d share a group; all is every selection.
	spoils [1 << indexBits][2]uint64
	all    [2]uint64
}

var _ ecc.Scheme = (*Scheme)(nil)

// New returns a SAFER scheme with 2^k groups. The paper's configuration is
// New(5) (SAFER-32). k must be in [1, 9].
func New(k int) *Scheme {
	if k < 1 || k > indexBits {
		panic("safer: group-count exponent out of range [1,9]")
	}
	s := &Scheme{k: k}
	const full = 1<<indexBits - 1
	sel := 0
	for mask := 0; mask <= full; mask++ {
		if bits.OnesCount(uint(mask)) != k {
			continue
		}
		w, bit := sel>>6, uint64(1)<<(sel&63)
		s.all[w] |= bit
		// d spoils mask iff d&mask == 0: every nonzero submask of the
		// complement (d = 0 would pair a cell with itself).
		comp := full &^ mask
		for d := comp; d != 0; d = (d - 1) & comp {
			s.spoils[d][w] |= bit
		}
		sel++
	}
	return s
}

// Name implements ecc.Scheme.
func (s *Scheme) Name() string { return "SAFER-" + strconv.Itoa(1<<s.k) }

// Groups returns the number of partition groups (2^k).
func (s *Scheme) Groups() int { return 1 << s.k }

// Correctable implements ecc.Scheme. It reports whether some k-bit index
// selection separates all faulty cells inside the window into distinct
// groups, i.e. whether the faulty pairs leave some selection unspoiled.
func (s *Scheme) Correctable(faults *ecc.FaultSet, startByte, lengthBytes int) bool {
	n := faults.CountInByteWindow(startByte, lengthBytes)
	if n <= 1 {
		return true
	}
	if n > s.Groups() {
		return false // pigeonhole: more faults than groups
	}
	// Stack buffer: AppendIndicesInWindow's result stays local, so escape
	// analysis keeps the array off the heap; the write path calls
	// Correctable on every placement trial.
	var buf [block.Bits]int
	idx := faults.AppendIndicesInWindow(buf[:0], startByte, lengthBytes)
	var spoiled [2]uint64
	for i, a := range idx {
		for _, b := range idx[i+1:] {
			d := &s.spoils[a^b]
			spoiled[0] |= d[0]
			spoiled[1] |= d[1]
		}
		if spoiled == s.all {
			return false
		}
	}
	return true
}

// CorrectableBounds implements ecc.Scheme, mirroring the two
// count-only early returns of Correctable: at most one fault per window is
// trivially storable, and more faults than groups can never be separated.
func (s *Scheme) CorrectableBounds() (always, never int) { return 1, s.Groups() }

// MetadataBits implements ecc.Scheme. SAFER-2^k needs k position fields of
// ceil(log2(9)) = 4 bits plus one flip bit per group (the original paper
// also folds in a small fail counter; we report the dominant terms).
func (s *Scheme) MetadataBits() int { return s.k*4 + s.Groups() }
