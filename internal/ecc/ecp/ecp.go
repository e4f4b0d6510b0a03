// Package ecp implements the Error-Correcting Pointers scheme of Schechter
// et al., "Use ECP, not ECC, for Hard Failures in Resistive Memories"
// (ISCA 2010), in the ECP-6 configuration the DSN'17 paper uses as its
// baseline hard-error tolerance.
//
// ECP-n stores n (pointer, replacement-cell) pairs per line. Each pointer is
// a 9-bit cell index into the 512-bit line and each replacement cell stores
// the value the broken cell should have held; a full bit says whether all
// entries are active. ECP-6 therefore needs 6*(9+1)+1 = 61 bits, fitting the
// 64-bit ECC-chip share of a line, and corrects up to 6 arbitrary stuck
// cells regardless of position.
package ecp

import (
	"strconv"

	"pcmcomp/internal/ecc"
)

// Scheme is the ECP-n hard-error corrector. The zero value is not valid;
// use New.
type Scheme struct {
	n int
}

var _ ecc.Scheme = (*Scheme)(nil)

// New returns an ECP scheme with capacity for n corrected cells. The paper's
// baseline is New(6).
func New(n int) *Scheme {
	if n < 0 {
		panic("ecp: negative correction capacity")
	}
	return &Scheme{n: n}
}

// Name implements ecc.Scheme.
func (s *Scheme) Name() string {
	if s.n == 6 {
		return "ECP-6"
	}
	return "ECP-" + strconv.Itoa(s.n)
}

// Capacity returns the number of correctable cells.
func (s *Scheme) Capacity() int { return s.n }

// Correctable implements ecc.Scheme: the write succeeds iff at most n faulty
// cells fall inside the data window.
func (s *Scheme) Correctable(faults *ecc.FaultSet, startByte, lengthBytes int) bool {
	return faults.CountInByteWindow(startByte, lengthBytes) <= s.n
}

// CorrectableBounds implements ecc.Scheme: ECP's decision is
// exactly the count threshold, so both bounds collapse to n and the fast
// path never needs the full Correctable call.
func (s *Scheme) CorrectableBounds() (always, never int) { return s.n, s.n }

// MetadataBits implements ecc.Scheme: n pointers of 9 bits, n replacement
// cells, plus the full bit.
func (s *Scheme) MetadataBits() int { return s.n*(9+1) + 1 }
