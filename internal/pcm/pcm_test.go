package pcm

import (
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
)

func smallConfig(meanEndurance float64) Config {
	return Config{
		Geometry: Geometry{
			Channels: 2, DIMMsPerChannel: 1, RanksPerDIMM: 1,
			BanksPerRank: 4, LinesPerBank: 16,
		},
		Endurance: Endurance{Mean: meanEndurance, CoV: 0.15},
		Seed:      1,
	}
}

func TestGeometryMath(t *testing.T) {
	g := smallConfig(100).Geometry
	if g.Banks() != 8 {
		t.Fatalf("banks = %d", g.Banks())
	}
	if g.TotalLines() != 128 {
		t.Fatalf("lines = %d", g.TotalLines())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := g
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	g := smallConfig(100).Geometry
	for addr := 0; addr < g.TotalLines(); addr++ {
		loc := g.Decode(addr)
		if loc.Bank < 0 || loc.Bank >= g.Banks() || loc.Row < 0 || loc.Row >= g.LinesPerBank {
			t.Fatalf("decode(%d) = %+v out of range", addr, loc)
		}
		if back := g.Encode(loc); back != addr {
			t.Fatalf("encode(decode(%d)) = %d", addr, back)
		}
	}
}

func TestBankInterleaving(t *testing.T) {
	g := smallConfig(100).Geometry
	// Consecutive line addresses must land on different banks.
	for addr := 0; addr+1 < g.Banks(); addr++ {
		if g.Decode(addr).Bank == g.Decode(addr+1).Bank {
			t.Fatalf("addresses %d,%d share a bank", addr, addr+1)
		}
	}
}

func TestLazyMaterialization(t *testing.T) {
	m := New(smallConfig(100))
	for addr := 0; addr < m.NumLines(); addr++ {
		if m.Peek(addr) != nil {
			t.Fatalf("line %d materialized before touch", addr)
		}
	}
	if m.Peek(5) != nil {
		t.Fatal("Peek materialized a line")
	}
	l := m.Line(5)
	if l == nil || m.Peek(4) != nil || m.Peek(6) != nil {
		t.Fatal("materialization failed")
	}
	if m.Line(5) != l {
		t.Fatal("second access returned a different line")
	}
	if m.Peek(5) != l {
		t.Fatal("Peek should return the materialized line")
	}
}

func TestEnduranceSamplingDeterministic(t *testing.T) {
	m1 := New(smallConfig(1000))
	m2 := New(smallConfig(1000))
	l1, l2 := m1.Line(7), m2.Line(7)
	for i := 0; i < block.Bits; i++ {
		if l1.Remaining(i) != l2.Remaining(i) {
			t.Fatal("endurance sampling is not deterministic")
		}
	}
	// Different addresses get different populations.
	l3 := m1.Line(8)
	same := 0
	for i := 0; i < block.Bits; i++ {
		if l1.Remaining(i) == l3.Remaining(i) {
			same++
		}
	}
	if same > block.Bits/4 {
		t.Fatalf("lines 7 and 8 share %d/512 endurance values", same)
	}
}

func TestEnduranceDistribution(t *testing.T) {
	cfg := smallConfig(10000)
	m := New(cfg)
	var sum, sumSq float64
	n := 0
	for addr := 0; addr < 32; addr++ {
		l := m.Line(addr)
		for i := 0; i < block.Bits; i++ {
			v := float64(l.Remaining(i))
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	std := sumSq/float64(n) - mean*mean
	if mean < 9500 || mean > 10500 {
		t.Fatalf("endurance mean = %v, want ~10000", mean)
	}
	cov := 0.0
	if std > 0 {
		cov = sqrt(std) / mean
	}
	if cov < 0.12 || cov > 0.18 {
		t.Fatalf("endurance CoV = %v, want ~0.15", cov)
	}
}

func sqrt(x float64) float64 {
	// Newton iterations; avoids importing math for one call.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestDifferentialWriteOnlyFlipsDiffering(t *testing.T) {
	m := New(smallConfig(1000))
	l := m.Line(0)
	var d1 block.Block
	d1[0] = 0xff
	var res WriteResult
	l.WriteWindow(&d1, 0, block.Size, &res)
	if res.FlipsNeeded != 8 || res.FlipsWritten != 8 || res.StuckFlips != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	// Rewriting identical data programs nothing.
	res = WriteResult{}
	l.WriteWindow(&d1, 0, block.Size, &res)
	if res.FlipsNeeded != 0 || res.FlipsWritten != 0 {
		t.Fatalf("identical rewrite flipped %d cells", res.FlipsWritten)
	}
	if l.Writes() != 2 {
		t.Fatalf("write count = %d", l.Writes())
	}
	if !block.Equal(l.Data(), &d1) {
		t.Fatal("stored data wrong")
	}
}

func TestWriteWindowRestriction(t *testing.T) {
	m := New(smallConfig(1000))
	l := m.Line(1)
	var full block.Block
	for i := range full {
		full[i] = 0xff
	}
	var res WriteResult
	l.WriteWindow(&full, 8, 4, &res) // only bytes 8..11
	if res.FlipsWritten != 32 {
		t.Fatalf("flips = %d, want 32", res.FlipsWritten)
	}
	for i := 0; i < block.Size; i++ {
		want := byte(0)
		if i >= 8 && i < 12 {
			want = 0xff
		}
		if l.Data()[i] != want {
			t.Fatalf("byte %d = %x, want %x", i, l.Data()[i], want)
		}
	}
}

func TestCellWearAndDeath(t *testing.T) {
	cfg := smallConfig(5) // tiny endurance: cells die after ~5 writes
	cfg.Endurance.CoV = 0
	m := New(cfg)
	l := m.Line(0)
	var a, b block.Block
	b[0] = 0x01 // toggle bit 0 back and forth
	deaths := 0
	for i := 0; i < 20; i++ {
		var res WriteResult
		if i%2 == 0 {
			l.WriteWindow(&b, 0, block.Size, &res)
		} else {
			l.WriteWindow(&a, 0, block.Size, &res)
		}
		deaths += res.NewFaults
	}
	if deaths != 1 {
		t.Fatalf("expected exactly one cell death, got %d", deaths)
	}
	if !l.Faults().Contains(0) {
		t.Fatal("cell 0 should be stuck")
	}
	if l.Remaining(0) != 0 {
		t.Fatal("dead cell has remaining budget")
	}
}

func TestStuckCellRetainsValue(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Endurance.CoV = 0
	m := New(cfg)
	l := m.Line(0)
	var one block.Block
	one[0] = 0x01
	var res WriteResult
	l.WriteWindow(&one, 0, block.Size, &res) // budget 1: this write programs and kills cell 0
	if res.NewFaults != 1 || !l.Faults().Contains(0) {
		t.Fatalf("new faults %d, fault set %v; want 1, [0]", res.NewFaults, l.Faults().Indices())
	}
	// Cell 0 is stuck at 1 now; writing zero must not change it.
	var zero block.Block
	res = WriteResult{}
	l.WriteWindow(&zero, 0, block.Size, &res)
	if res.StuckFlips != 1 || res.FlipsWritten != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	if !l.Data().Bit(0) {
		t.Fatal("stuck cell changed value")
	}
}

func TestWearOnlyOnFlips(t *testing.T) {
	cfg := smallConfig(100)
	cfg.Endurance.CoV = 0
	m := New(cfg)
	l := m.Line(0)
	var d block.Block
	d[5] = 0xaa
	var res WriteResult
	l.WriteWindow(&d, 0, block.Size, &res)
	// Cells never flipped keep full budget.
	if l.Remaining(0) != 100 {
		t.Fatalf("untouched cell wore out: %d", l.Remaining(0))
	}
	// Each set bit of 0xaa wore exactly once.
	if l.Remaining(5*8+1) != 99 {
		t.Fatalf("flipped cell remaining = %d, want 99", l.Remaining(5*8+1))
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func BenchmarkDifferentialWrite(b *testing.B) {
	m := New(smallConfig(1e9))
	l := m.Line(0)
	r := rng.New(1)
	data := make([]block.Block, 16)
	for i := range data {
		for w := 0; w < 8; w++ {
			data[i].SetWord(w, r.Uint64())
		}
	}
	b.ReportAllocs()
	var res WriteResult
	for i := 0; i < b.N; i++ {
		l.WriteWindow(&data[i%len(data)], 0, block.Size, &res)
	}
}
