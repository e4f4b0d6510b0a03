// Package aegis implements the Aegis stuck-at-fault recovery scheme of Fan
// et al., "Aegis: Partitioning Data Block for Efficient Recovery of
// Stuck-at-Faults in Phase Change Memory" (MICRO 2013), in the 17x31
// configuration the DSN'17 paper evaluates.
//
// Aegis k x m (k <= m, m prime, gcd(k, m) = 1) maps cell i of the line onto
// grid coordinates (x, y) = (i mod k, i mod m) — a CRT mapping, so distinct
// cells below k*m get distinct coordinates. The partition family consists of
// the m "slope" partitions rho_a (group of a cell = (y + a*x) mod m, for
// a in 0..m-1) plus the "row" partition rho_inf (group = x). Any two cells
// share a group in exactly one family member, so t faults can spoil at most
// t*(t-1)/2 of the m+1 partitions: with 17x31 (32 partitions), any 8 faults
// are deterministically separable, and far more probabilistically. As in
// SAFER, each group carries one flip bit, masking one stuck cell per group.
//
// Correctability is decided pairwise from that property: each pair of
// faulty cells spoils exactly one partition (rho_inf when their x agree,
// else the slope a with a*dx = -dy mod m), and the line is recoverable iff
// the pairs leave some partition unspoiled.
package aegis

import (
	"fmt"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
)

// Scheme is the Aegis k x m recovery scheme. Construct with New.
type Scheme struct {
	k, m int
	// spoils[δ<<1|w] is the partition (m numbers rho_inf) in which cells i
	// and i+δ share a group; w is 1 when their x coordinate wraps, i.e.
	// x[i+δ] < x[i], and x holds each cell's x coordinate. Both stay
	// empty for m >= block.Bits, where Correctable needs neither.
	spoils [2 * block.Bits]uint16
	x      [block.Bits]uint16
}

var _ ecc.Scheme = (*Scheme)(nil)

// New returns an Aegis scheme over a k x m grid. The paper's configuration
// is New(17, 31). It returns an error if the geometry cannot cover a
// 512-cell line or violates gcd(k, m) = 1.
func New(k, m int) (*Scheme, error) {
	if k < 1 || m < 1 || k > m {
		return nil, fmt.Errorf("aegis: invalid grid %dx%d (need 1 <= k <= m)", k, m)
	}
	if gcd(k, m) != 1 {
		return nil, fmt.Errorf("aegis: grid %dx%d requires gcd(k,m) = 1", k, m)
	}
	if k*m < 512 {
		return nil, fmt.Errorf("aegis: grid %dx%d holds %d cells, need >= 512", k, m, k*m)
	}
	if !isPrime(m) {
		return nil, fmt.Errorf("aegis: m = %d must be prime", m)
	}
	s := &Scheme{k: k, m: m}
	if m >= block.Bits {
		return s, nil // Correctable decides without spoils (see there)
	}
	var inv [block.Bits]int // inv[a]*a = 1 (mod m)
	inv[1] = 1
	for a := 2; a < m; a++ {
		inv[a] = (m - m/a*inv[m%a]%m) % m
	}
	for d := 1; d < block.Bits; d++ {
		for w := 0; w < 2; w++ {
			dx := d%k - w*k // x_j - x_i; 0 only for w = 0, d = 0 mod k
			p := m
			if dx != 0 {
				// Slope a puts both cells in one group iff dy + a*dx = 0
				// (mod m), with dy = d (mod m).
				p = (m - d%m) * inv[(dx+m)%m] % m
			}
			s.spoils[d<<1|w] = uint16(p)
		}
	}
	for cell := range s.x {
		s.x[cell] = uint16(cell % k)
	}
	return s, nil
}

// MustNew is New, panicking on invalid geometry; for package-level defaults
// in tests and benchmarks.
func MustNew(k, m int) *Scheme {
	s, err := New(k, m)
	if err != nil {
		panic(err)
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// Name implements ecc.Scheme.
func (s *Scheme) Name() string { return fmt.Sprintf("Aegis-%dx%d", s.k, s.m) }

// Partitions returns the size of the partition family (m slopes + rho_inf).
func (s *Scheme) Partitions() int { return s.m + 1 }

// Correctable implements ecc.Scheme. It reports whether some partition in
// the family places every faulty cell inside the window into a distinct
// group, i.e. whether the faulty pairs leave some partition unspoiled.
func (s *Scheme) Correctable(faults *ecc.FaultSet, startByte, lengthBytes int) bool {
	n := faults.CountInByteWindow(startByte, lengthBytes)
	if n <= 1 {
		return true
	}
	if n > s.m { // pigeonhole on the largest partitions (m groups)
		// rho_inf has only k groups, slopes have m; more than m faults can
		// never be separated.
		return false
	}
	// Deterministic guarantee: t faults spoil at most t(t-1)/2 of the m+1
	// partitions. With m >= block.Bits no pair can spoil slope 0, whose
	// group y = cell mod m is then the cell index itself.
	if n*(n-1)/2 < s.m+1 || s.m >= block.Bits {
		return true
	}
	// Stack buffer: keeps every placement-trial call allocation-free.
	var idxBuf [block.Bits]int
	idx := faults.AppendIndicesInWindow(idxBuf[:0], startByte, lengthBytes)
	var spoiled [block.Bits / 64]uint64
	left := s.m + 1 // partitions no pair has spoiled yet
	for i, a := range idx {
		for _, b := range idx[i+1:] {
			d, dx := b-a, int(s.x[b])-int(s.x[a])
			if d < 0 { // a wrapped window lists the line's tail first
				d, dx = -d, -dx
			}
			p := s.spoils[d<<1|int(uint(dx)>>63)] // wrap = sign of dx
			if bit := uint64(1) << (p & 63); spoiled[p>>6]&bit == 0 {
				spoiled[p>>6] |= bit
				if left--; left == 0 {
					return false
				}
			}
		}
	}
	return true
}

// CorrectableBounds implements ecc.Scheme, mirroring the
// count-only early returns of Correctable: up to the deterministic
// guarantee (the largest t with t(t-1)/2 <= m, i.e. t faults spoil at most
// t(t-1)/2 < m+1 partitions) every window is separable, and beyond m
// faults the pigeonhole on the slope partitions makes separation
// impossible.
func (s *Scheme) CorrectableBounds() (always, never int) {
	t := 1
	for (t+1)*t/2 <= s.m {
		t++
	}
	return t, s.m
}

// MetadataBits implements ecc.Scheme: a partition selector of
// ceil(log2(m+1)) bits plus one flip bit per group (m groups worst case).
func (s *Scheme) MetadataBits() int {
	sel := 0
	for 1<<sel < s.m+1 {
		sel++
	}
	return sel + s.m
}
