package aegis

import (
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/rng"
)

func TestGeometryValidation(t *testing.T) {
	if _, err := New(17, 31); err != nil {
		t.Fatalf("17x31 should be valid: %v", err)
	}
	cases := []struct{ k, m int }{
		{31, 17},  // k > m
		{16, 30},  // m not prime and gcd != 1
		{17, 34},  // gcd(17,34) = 17
		{4, 8},    // too small and m not prime
		{10, 50},  // not coprime, m not prime
		{0, 31},   // k < 1
		{17, -31}, // negative
	}
	for _, c := range cases {
		if _, err := New(c.k, c.m); err == nil {
			t.Errorf("New(%d,%d) should fail", c.k, c.m)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic for invalid geometry")
		}
	}()
	MustNew(4, 4)
}

func TestDeterministicGuaranteeEightFaults(t *testing.T) {
	// 17x31 has 32 partitions; 8 faults spoil at most C(8,2)=28 < 32, so any
	// 8-fault set is correctable.
	s := MustNew(17, 31)
	r := rng.New(2)
	for trial := 0; trial < 2000; trial++ {
		var f ecc.FaultSet
		for f.Count() < 8 {
			f.Add(r.Intn(block.Bits))
		}
		if !s.Correctable(&f, 0, block.Size) {
			t.Fatalf("trial %d: 8 faults %v not corrected", trial, f.Indices())
		}
	}
}

func TestConsecutiveFaults(t *testing.T) {
	s := MustNew(17, 31)
	for base := 0; base <= block.Bits-8; base += 13 {
		var f ecc.FaultSet
		for i := 0; i < 8; i++ {
			f.Add(base + i)
		}
		if !s.Correctable(&f, 0, block.Size) {
			t.Fatalf("8 consecutive faults at %d not corrected", base)
		}
	}
}

func TestPigeonholeLimit(t *testing.T) {
	s := MustNew(17, 31)
	var f ecc.FaultSet
	for i := 0; i < 32; i++ {
		f.Add(i)
	}
	if s.Correctable(&f, 0, block.Size) {
		t.Fatal("32 faults cannot fit 31 slope groups (rho_inf has 17)")
	}
}

func TestCRTMappingDistinct(t *testing.T) {
	// Coordinates (i mod 17, i mod 31) must be pairwise distinct for
	// i < 512 <= 527.
	seen := make(map[[2]int]int)
	for i := 0; i < block.Bits; i++ {
		key := [2]int{i % 17, i % 31}
		if prev, ok := seen[key]; ok {
			t.Fatalf("cells %d and %d share coordinates %v", prev, i, key)
		}
		seen[key] = i
	}
}

func TestPairCollidesInExactlyOnePartition(t *testing.T) {
	// The affine-plane property underlying the deterministic guarantee.
	s := MustNew(17, 31)
	r := rng.New(4)
	for trial := 0; trial < 300; trial++ {
		i := r.Intn(block.Bits)
		j := r.Intn(block.Bits)
		if i == j {
			continue
		}
		collisions := 0
		xi, yi := i%s.k, i%s.m
		xj, yj := j%s.k, j%s.m
		for a := 0; a < s.m; a++ {
			if (yi+a*xi)%s.m == (yj+a*xj)%s.m {
				collisions++
			}
		}
		if xi == xj {
			collisions++ // rho_inf collision
		}
		if collisions != 1 {
			t.Fatalf("cells %d,%d collide in %d partitions, want exactly 1", i, j, collisions)
		}
	}
}

func TestWindowRestriction(t *testing.T) {
	s := MustNew(17, 31)
	var f ecc.FaultSet
	for i := 0; i < 60; i++ {
		f.Add(256 + i*4)
	}
	if s.Correctable(&f, 0, block.Size) {
		t.Fatal("60 faults must defeat Aegis")
	}
	if !s.Correctable(&f, 0, 32) {
		t.Fatal("clean lower half must be correctable")
	}
}

func TestAegisBeatsSAFERShape(t *testing.T) {
	// Fig 9 of the paper: at equal fault counts Aegis tolerates at least as
	// many faults as the pigeonhole allows; statistically, with 20 random
	// faults over the full line Aegis should succeed sometimes.
	s := MustNew(17, 31)
	r := rng.New(6)
	ok := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		var f ecc.FaultSet
		for f.Count() < 12 {
			f.Add(r.Intn(block.Bits))
		}
		if s.Correctable(&f, 0, block.Size) {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("Aegis should correct some 12-fault lines")
	}
}

func TestMonotoneInFaults(t *testing.T) {
	s := MustNew(17, 31)
	r := rng.New(21)
	for trial := 0; trial < 50; trial++ {
		var f ecc.FaultSet
		prev := true
		for i := 0; i < 40; i++ {
			f.Add(r.Intn(block.Bits))
			cur := s.Correctable(&f, 0, block.Size)
			if cur && !prev {
				t.Fatal("correctability is not monotone in fault count")
			}
			prev = cur
		}
	}
}

func TestNameAndPartitions(t *testing.T) {
	s := MustNew(17, 31)
	if s.Name() != "Aegis-17x31" {
		t.Fatalf("name = %q", s.Name())
	}
	if s.Partitions() != 32 {
		t.Fatalf("partitions = %d", s.Partitions())
	}
}

func TestMetadataFitsECCChipShare(t *testing.T) {
	s := MustNew(17, 31)
	if got := s.MetadataBits(); got > 64 {
		t.Fatalf("metadata = %d bits, exceeds ECC chip budget", got)
	}
}

// searchOracle is the exhaustive definition of Aegis correctability: some
// slope partition, or rho_inf, maps every faulty cell to a distinct group.
func searchOracle(s *Scheme, idx []int) bool {
	distinct := func(group func(cell int) int) bool {
		seen := make([]bool, s.m)
		for _, cell := range idx {
			g := group(cell)
			if seen[g] {
				return false
			}
			seen[g] = true
		}
		return true
	}
	for a := 0; a < s.m; a++ {
		if distinct(func(cell int) int { return (cell%s.m + a*(cell%s.k)) % s.m }) {
			return true
		}
	}
	return distinct(func(cell int) int { return cell % s.k })
}

func TestCorrectableMatchesSearchOracle(t *testing.T) {
	// The pairwise rule must give the partition search's verdict on every
	// fault set: uniform draws and runs of consecutive cells, over the full
	// line and over windows (wrapping ones included), for the paper's grid
	// and others, including families of more than 64 and more than 512
	// partitions.
	r := rng.New(11)
	for _, g := range []struct{ k, m int }{{17, 31}, {23, 29}, {13, 41}, {9, 61}, {5, 103}, {1, 521}} {
		s := MustNew(g.k, g.m)
		always, never := s.CorrectableBounds()
		verdicts := map[bool]int{}
		for trial := 0; trial < 600; trial++ {
			var f ecc.FaultSet
			n := always + r.Intn(never-always+2)
			if trial%3 == 2 {
				base := r.Intn(block.Bits)
				for i := 0; i < n && i < block.Bits; i++ {
					f.Add((base + i) % block.Bits)
				}
			} else {
				for f.Count() < n && f.Count() < block.Bits {
					f.Add(r.Intn(block.Bits))
				}
			}
			start, length := 0, block.Size
			if trial%2 == 1 {
				start, length = r.Intn(block.Size), 1+r.Intn(block.Size)
			}
			idx := f.AppendIndicesInWindow(nil, start, length)
			want := searchOracle(s, idx)
			if got := s.Correctable(&f, start, length); got != want {
				t.Fatalf("%s faults %v window [%d,+%d): Correctable = %v, search = %v",
					s.Name(), f.Indices(), start, length, got, want)
			}
			if len(idx) > always && len(idx) <= never { // past the count screens
				verdicts[want]++
			}
		}
		// With m >= 512 slope 0 (group = cell index) separates any set.
		if verdicts[true] == 0 || (g.m < block.Bits && verdicts[false] == 0) {
			t.Fatalf("%s: verdicts %v, want both outcomes exercised", s.Name(), verdicts)
		}
	}
}

func BenchmarkCorrectable20Faults(b *testing.B) {
	s := MustNew(17, 31)
	r := rng.New(1)
	var f ecc.FaultSet
	for f.Count() < 20 {
		f.Add(r.Intn(block.Bits))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Correctable(&f, 0, block.Size)
	}
}

// newSink keeps BenchmarkNew's constructor call from being optimized away.
var newSink *Scheme

// BenchmarkNew times the table build; pcmd builds schemes per request.
func BenchmarkNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newSink = MustNew(17, 31)
	}
}
