package safer

import (
	"math/bits"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/rng"
)

func TestDeterministicGuaranteeSixFaults(t *testing.T) {
	// SAFER-32 deterministically corrects any 6 faults (MICRO'10 Thm: k bit
	// positions always separate k+1 values).
	s := New(5)
	r := rng.New(1)
	for trial := 0; trial < 2000; trial++ {
		var f ecc.FaultSet
		for f.Count() < 6 {
			f.Add(r.Intn(block.Bits))
		}
		if !s.Correctable(&f, 0, block.Size) {
			t.Fatalf("trial %d: 6 faults %v not corrected by SAFER-32", trial, f.Indices())
		}
	}
}

func TestAdversarialSixFaults(t *testing.T) {
	// Tightly clustered faults (consecutive indices) exercise the hardest
	// separations; they must still be correctable.
	s := New(5)
	for base := 0; base <= block.Bits-6; base += 17 {
		var f ecc.FaultSet
		for i := 0; i < 6; i++ {
			f.Add(base + i)
		}
		if !s.Correctable(&f, 0, block.Size) {
			t.Fatalf("6 consecutive faults at %d not corrected", base)
		}
	}
}

func TestPigeonholeLimit(t *testing.T) {
	s := New(5)
	var f ecc.FaultSet
	for i := 0; i < 33; i++ {
		f.Add(i)
	}
	if s.Correctable(&f, 0, block.Size) {
		t.Fatal("33 faults cannot fit 32 groups")
	}
}

func TestExistsUncorrectableSevenFaultSet(t *testing.T) {
	// The deterministic limit is 6: seven faults that pairwise differ in at
	// most 4 index bits can defeat every 5-of-9 selection. Faults within one
	// 16-cell cluster differ only in the low 4 bits, so any separating mask
	// must include all differing low bits; picking 7 faults spread over two
	// such clusters with aligned low bits forces a collision.
	s := New(5)
	// All pairs must collide under any mask that misses their differing
	// bits. Construct: indices sharing bit pattern except low 3 bits can be
	// separated by selecting the low 3 bits + 2 others. Instead verify
	// empirically that some 7-fault placement is uncorrectable.
	r := rng.New(77)
	found := false
	for trial := 0; trial < 20000 && !found; trial++ {
		var f ecc.FaultSet
		base := r.Intn(block.Bits)
		for f.Count() < 7 {
			// Cluster faults within a small Hamming ball around base.
			v := base ^ (1 << uint(r.Intn(9)))
			if r.Intn(2) == 0 {
				v ^= 1 << uint(r.Intn(9))
			}
			f.Add(v % block.Bits)
		}
		if !s.Correctable(&f, 0, block.Size) {
			found = true
		}
	}
	if !found {
		t.Fatal("expected some 7-fault placement to defeat SAFER-32")
	}
}

func TestWindowRestriction(t *testing.T) {
	s := New(5)
	var f ecc.FaultSet
	// 40 faults in the upper half: uncorrectable over the full line, but a
	// window over the clean lower half sees none of them.
	for i := 0; i < 40; i++ {
		f.Add(256 + i*6)
	}
	if s.Correctable(&f, 0, block.Size) {
		t.Fatal("40 faults must defeat SAFER-32")
	}
	if !s.Correctable(&f, 0, 16) {
		t.Fatal("clean window must be correctable")
	}
}

func TestCompressionImprovesTolerance(t *testing.T) {
	// The paper's core claim (Fig 9b): for the same total fault count,
	// smaller windows are correctable more often. Statistical check.
	s := New(5)
	r := rng.New(5)
	const faults, trials = 20, 400
	okSmall, okFull := 0, 0
	for trial := 0; trial < trials; trial++ {
		var f ecc.FaultSet
		for f.Count() < faults {
			f.Add(r.Intn(block.Bits))
		}
		if s.Correctable(&f, 0, 16) {
			okSmall++
		}
		if s.Correctable(&f, 0, block.Size) {
			okFull++
		}
	}
	if okSmall <= okFull {
		t.Fatalf("16B window (%d/%d) should beat 64B window (%d/%d)", okSmall, trials, okFull, trials)
	}
}

func TestMonotoneInFaults(t *testing.T) {
	s := New(5)
	r := rng.New(13)
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

func TestGroupsAndName(t *testing.T) {
	s := New(5)
	if s.Groups() != 32 {
		t.Fatalf("groups = %d", s.Groups())
	}
	if s.Name() != "SAFER-32" {
		t.Fatalf("name = %q", s.Name())
	}
	if New(4).Groups() != 16 {
		t.Fatal("SAFER-16 groups wrong")
	}
}

func TestMetadataFitsECCChipShare(t *testing.T) {
	s := New(5)
	if got := s.MetadataBits(); got > 64 {
		t.Fatalf("metadata = %d bits, exceeds ECC chip budget", got)
	}
}

func TestInvalidK(t *testing.T) {
	for _, k := range []int{0, 10, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", k)
				}
			}()
			New(k)
		}()
	}
}

// searchOracle is the exhaustive definition of SAFER correctability: some
// k-of-9 index-bit selection maps every faulty cell to a distinct group.
func searchOracle(k int, idx []int) bool {
	for mask := 0; mask < 1<<indexBits; mask++ {
		if bits.OnesCount(uint(mask)) != k {
			continue
		}
		var used [block.Bits / 64]uint64 // group = the cell's masked bits
		distinct := true
		for _, cell := range idx {
			g := cell & mask
			w, bit := g>>6, uint64(1)<<(g&63)
			if used[w]&bit != 0 {
				distinct = false
				break
			}
			used[w] |= bit
		}
		if distinct {
			return true
		}
	}
	return false
}

func TestCorrectableMatchesSearchOracle(t *testing.T) {
	// The pairwise rule must give the selection search's verdict on every
	// fault set: uniform draws, Hamming-ball clusters (the sets that defeat
	// selections) and runs of consecutive cells, full line and sub-windows.
	r := rng.New(9)
	for k := 1; k <= indexBits; k++ {
		s := New(k)
		verdicts := map[bool]int{}
		for trial := 0; trial < 1500; trial++ {
			var f ecc.FaultSet
			n := 2 + r.Intn(s.Groups()+2)
			switch trial % 3 {
			case 0:
				for f.Count() < n && f.Count() < block.Bits {
					f.Add(r.Intn(block.Bits))
				}
			case 1:
				base := r.Intn(block.Bits)
				for try := 0; f.Count() < n && try < 4*n; try++ {
					v := base ^ 1<<uint(r.Intn(indexBits))
					if r.Intn(2) == 0 {
						v ^= 1 << uint(r.Intn(indexBits))
					}
					f.Add(v)
				}
			default:
				base := r.Intn(block.Bits)
				for i := 0; i < n; i++ {
					f.Add((base + i) % block.Bits)
				}
			}
			start, length := 0, block.Size
			if trial%2 == 1 { // any window, wrapping ones included
				start, length = r.Intn(block.Size), 1+r.Intn(block.Size)
			}
			idx := f.AppendIndicesInWindow(nil, start, length)
			want := searchOracle(k, idx)
			if got := s.Correctable(&f, start, length); got != want {
				t.Fatalf("k=%d faults %v window [%d,+%d): Correctable = %v, search = %v",
					k, f.Indices(), start, length, got, want)
			}
			if len(idx) > 1 && len(idx) <= s.Groups() { // past the count screens
				verdicts[want]++
			}
		}
		// Past the count screens SAFER-2 (two faults always differ in some
		// bit) and SAFER-512 (a group per cell) cannot fail.
		if verdicts[true] == 0 || (k > 1 && k < indexBits && verdicts[false] == 0) {
			t.Fatalf("k=%d: verdicts %v, want both outcomes exercised", k, verdicts)
		}
	}
}

func BenchmarkCorrectable20Faults(b *testing.B) {
	s := New(5)
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
		newSink = New(5)
	}
}
