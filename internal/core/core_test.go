package core

import (
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/rng"
)

// testMemory builds a small PCM substrate with controllable endurance.
func testMemory(meanEndurance, cov float64) pcm.Config {
	return pcm.Config{
		Geometry: pcm.Geometry{
			Channels: 1, DIMMsPerChannel: 1, RanksPerDIMM: 1,
			BanksPerRank: 2, LinesPerBank: 9, // 8 logical rows + gap per bank
		},
		Endurance: pcm.Endurance{Mean: meanEndurance, CoV: cov},
		Seed:      7,
	}
}

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// compressibleBlock returns a line BDI compresses well (narrow values).
func compressibleBlock(seed uint64) block.Block {
	r := rng.New(seed)
	var b block.Block
	base := r.Uint64()
	for i := 0; i < 8; i++ {
		b.SetWord(i, base+uint64(r.Intn(100)))
	}
	return b
}

// randomBlock returns an incompressible line.
func randomBlock(seed uint64) block.Block {
	r := rng.New(seed)
	var b block.Block
	for i := 0; i < 8; i++ {
		b.SetWord(i, r.Uint64())
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	mem := testMemory(1e6, 0.15)
	if _, err := New(Config{System: SystemKind(0), Memory: mem}); err == nil {
		t.Error("unknown system accepted")
	}
	cfg := DefaultConfig(Baseline, mem)
	cfg.Memory.Geometry.LinesPerBank = 1
	if _, err := New(cfg); err == nil {
		t.Error("1 line per bank accepted (no Start-Gap spare)")
	}
	cfg = DefaultConfig(Comp, mem)
	cfg.Threshold1 = 0
	if _, err := New(cfg); err == nil {
		t.Error("Threshold1=0 accepted")
	}
	cfg = DefaultConfig(Comp, mem)
	cfg.Threshold2 = 100
	if _, err := New(cfg); err == nil {
		t.Error("Threshold2=100 accepted")
	}
	cfg = DefaultConfig(Comp, mem)
	cfg.StartGapPsi = 0
	if _, err := New(cfg); err == nil {
		t.Error("psi=0 accepted")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(CompWF, testMemory(1e6, 0.15))
	if cfg.Scheme.Name() != "ECP-6" {
		t.Errorf("default scheme = %s", cfg.Scheme.Name())
	}
	if cfg.IntraCounterBits != 16 || cfg.IntraStepBytes != 1 {
		t.Error("intra-line WL defaults differ from the paper")
	}
	if !cfg.UseSCHeuristic {
		t.Error("SC heuristic should default on")
	}
}

func TestSystemNames(t *testing.T) {
	names := map[SystemKind]string{
		Baseline: "Baseline", Comp: "Comp", CompW: "Comp+W", CompWF: "Comp+WF",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestWriteReadRoundTripAllSystems(t *testing.T) {
	for _, sys := range []SystemKind{Baseline, Comp, CompW, CompWF} {
		t.Run(sys.String(), func(t *testing.T) {
			c := mustController(t, DefaultConfig(sys, testMemory(1e6, 0.15)))
			for addr := 0; addr < c.LogicalLines(); addr++ {
				var data block.Block
				if addr%2 == 0 {
					data = compressibleBlock(uint64(addr))
				} else {
					data = randomBlock(uint64(addr))
				}
				out := c.Write(addr, &data)
				if !out.Stored {
					t.Fatalf("write to %d not stored", addr)
				}
				got, _, err := c.Read(addr)
				if err != nil {
					t.Fatalf("read %d: %v", addr, err)
				}
				if !block.Equal(&got, &data) {
					t.Fatalf("round trip mismatch at %d", addr)
				}
			}
		})
	}
}

func TestBaselineNeverCompresses(t *testing.T) {
	c := mustController(t, DefaultConfig(Baseline, testMemory(1e6, 0.15)))
	data := compressibleBlock(1)
	out := c.Write(0, &data)
	if out.Compressed || out.Size != block.Size {
		t.Fatalf("baseline stored compressed: %+v", out)
	}
	if c.Stats().CompressedWrites != 0 {
		t.Fatal("baseline counted compressed writes")
	}
}

func TestCompStoresCompressed(t *testing.T) {
	c := mustController(t, DefaultConfig(Comp, testMemory(1e6, 0.15)))
	data := compressibleBlock(1)
	out := c.Write(0, &data)
	if !out.Compressed {
		t.Fatalf("compressible data stored raw: %+v", out)
	}
	if out.Size >= block.Size {
		t.Fatalf("compressed size = %d", out.Size)
	}
	if out.WindowStart != 0 {
		t.Fatalf("Comp window should start at LSB, got %d", out.WindowStart)
	}
}

func TestCompWindowSticksToLSB(t *testing.T) {
	c := mustController(t, DefaultConfig(Comp, testMemory(1e6, 0.15)))
	for i := 0; i < 100; i++ {
		data := compressibleBlock(uint64(i))
		out := c.Write(0, &data)
		if out.WindowStart != 0 {
			t.Fatalf("write %d: window moved to %d without faults", i, out.WindowStart)
		}
	}
}

func TestCompWRotatesWindows(t *testing.T) {
	cfg := DefaultConfig(CompW, testMemory(1e8, 0.15))
	cfg.IntraCounterBits = 4 // rotate every 16 bank writes
	c := mustController(t, cfg)
	origins := make(map[int]bool)
	for i := 0; i < 400; i++ {
		data := compressibleBlock(uint64(i % 3))
		out := c.Write(0, &data) // bank 0 gets every write
		if out.Stored {
			origins[out.WindowStart] = true
		}
	}
	if len(origins) < 10 {
		t.Fatalf("only %d distinct window origins; rotation not sweeping", len(origins))
	}
	if c.Stats().Rotations == 0 {
		t.Fatal("no rotations counted")
	}
}

func TestBaselineDiesAtSevenFaults(t *testing.T) {
	cfg := DefaultConfig(Baseline, testMemory(30, 0)) // uniform endurance 30
	c := mustController(t, cfg)
	var died bool
	// Alternate two random patterns: heavy flipping kills cells quickly.
	a, b := randomBlock(1), randomBlock(2)
	for i := 0; i < 200 && !died; i++ {
		var out Outcome
		if i%2 == 0 {
			out = c.Write(0, &a)
		} else {
			out = c.Write(0, &b)
		}
		died = out.Died
	}
	if !died {
		t.Fatal("line never died despite tiny endurance")
	}
	if c.DeadLines() == 0 {
		t.Fatal("dead count not incremented")
	}
	// Writes to the dead line are dropped.
	out := c.Write(0, &a)
	if out.Stored {
		t.Fatal("write to dead line was stored")
	}
	if _, _, err := c.Read(0); err == nil {
		t.Fatal("read of dead line should error")
	}
	if c.Stats().UncorrectableErrors == 0 {
		t.Fatal("uncorrectable errors not counted")
	}
}

func TestCompressionOutlivesBaseline(t *testing.T) {
	// The paper's core claim at the single-line level: with compressed
	// windows + sliding, a line tolerates more cell deaths than ECP-6's 6.
	writeUntilDead := func(sys SystemKind) (writes int, faultsAtDeath float64) {
		cfg := DefaultConfig(sys, testMemory(250, 0.25))
		cfg.StartGapPsi = 1 << 30 // isolate a single line: no movements
		cfg.MaxPlaceRetries = 16
		c := mustController(t, cfg)
		r := rng.New(3)
		for i := 0; i < 100000; i++ {
			data := compressibleBlock(r.Uint64())
			out := c.Write(0, &data)
			if out.Died {
				s := c.Stats()
				return i + 1, s.DeathFaultCells.Mean()
			}
		}
		t.Fatalf("%v: line never died", sys)
		return 0, 0
	}
	baseWrites, baseFaults := writeUntilDead(Baseline)
	compWrites, compFaults := writeUntilDead(CompWF)
	if compWrites <= baseWrites {
		t.Fatalf("Comp+WF died after %d writes, baseline after %d", compWrites, baseWrites)
	}
	if compFaults <= baseFaults {
		t.Fatalf("Comp+WF tolerated %.1f faults at death, baseline %.1f", compFaults, baseFaults)
	}
	// Fig 12: roughly 3x more tolerable faults; require at least 2x here.
	if compFaults < 2*baseFaults {
		t.Fatalf("fault tolerance gain %.2fx < 2x (comp %.1f, base %.1f)",
			compFaults/baseFaults, compFaults, baseFaults)
	}
}

func TestSCHeuristicForcesRawOnUnstableSizes(t *testing.T) {
	cfg := DefaultConfig(Comp, testMemory(1e8, 0.15))
	cfg.StartGapPsi = 1 << 30
	c := mustController(t, cfg)
	// Alternate between a mid-size compressible pattern and a barely
	// compressible one: sizes oscillate, SC should saturate, writes go raw.
	mid := compressibleBlock(5) // ~16-24 bytes (>= Threshold1)
	var big block.Block
	r := rng.New(9)
	for i := 0; i < 12; i++ {
		big.SetWord(i%8, r.Uint64())
	}
	sawRaw := false
	for i := 0; i < 40; i++ {
		var out Outcome
		if i%2 == 0 {
			out = c.Write(0, &mid)
		} else {
			out = c.Write(0, &big)
		}
		if out.Stored && !out.Compressed && out.Size == block.Size {
			sawRaw = true
		}
	}
	if !sawRaw && c.Stats().HeuristicRawWrites == 0 {
		t.Fatal("oscillating sizes never triggered the raw-write heuristic")
	}
}

func TestSCHeuristicKeepsCompressingStableSizes(t *testing.T) {
	cfg := DefaultConfig(Comp, testMemory(1e8, 0.15))
	c := mustController(t, cfg)
	for i := 0; i < 50; i++ {
		data := compressibleBlock(4) // identical size every time
		out := c.Write(0, &data)
		if !out.Compressed {
			t.Fatalf("write %d: stable sizes must stay compressed", i)
		}
	}
	if c.Stats().HeuristicRawWrites != 0 {
		t.Fatal("heuristic fired on stable sizes")
	}
}

func TestAlwaysCompressBelowThreshold1(t *testing.T) {
	cfg := DefaultConfig(Comp, testMemory(1e8, 0.15))
	c := mustController(t, cfg)
	var zero block.Block // compresses to 1 byte << Threshold1
	// Even after artificially saturating SC, tiny sizes stay compressed.
	bank, _ := c.locate(0)
	row := c.banks[bank].sg.Map(0)
	c.banks[bank].meta[row].sc = 3
	out := c.Write(0, &zero)
	if !out.Compressed {
		t.Fatal("sub-Threshold1 write stored raw despite saturated SC")
	}
}

func TestReadErrors(t *testing.T) {
	c := mustController(t, DefaultConfig(Comp, testMemory(1e6, 0.15)))
	if _, _, err := c.Read(0); err == nil {
		t.Fatal("read of never-written line should error")
	}
}

func TestLocatePanicsOutOfRange(t *testing.T) {
	c := mustController(t, DefaultConfig(Comp, testMemory(1e6, 0.15)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var b block.Block
	c.Write(c.LogicalLines(), &b)
}

func TestStartGapMovementPreservesData(t *testing.T) {
	cfg := DefaultConfig(CompWF, testMemory(1e8, 0.15))
	cfg.StartGapPsi = 5 // frequent movements
	c := mustController(t, cfg)
	want := make(map[int]block.Block)
	r := rng.New(11)
	// Fill all lines, then hammer writes to force many gap movements.
	for round := 0; round < 60; round++ {
		for addr := 0; addr < c.LogicalLines(); addr++ {
			var data block.Block
			switch r.Intn(3) {
			case 0:
				data = compressibleBlock(r.Uint64())
			case 1:
				data = randomBlock(r.Uint64())
			default:
				// keep previous data; skip write
				if prev, ok := want[addr]; ok {
					data = prev
				} else {
					data = compressibleBlock(r.Uint64())
				}
			}
			if out := c.Write(addr, &data); out.Stored {
				want[addr] = data
			}
		}
	}
	if c.Stats().GapMovements == 0 {
		t.Fatal("no gap movements happened")
	}
	for addr, w := range want {
		got, _, err := c.Read(addr)
		if err != nil {
			t.Fatalf("read %d after movements: %v", addr, err)
		}
		if !block.Equal(&got, &w) {
			t.Fatalf("line %d corrupted by movements", addr)
		}
	}
}

func TestCompWFResurrection(t *testing.T) {
	cfg := DefaultConfig(CompWF, testMemory(20, 0.1))
	cfg.StartGapPsi = 3
	c := mustController(t, cfg)
	r := rng.New(13)
	// Hammer incompressible data until lines start dying, then switch to
	// highly compressible data; movements should revive some dead lines.
	for i := 0; i < 40000 && c.DeadLines() < 3; i++ {
		addr := r.Intn(c.LogicalLines())
		data := randomBlock(r.Uint64())
		c.Write(addr, &data)
	}
	if c.DeadLines() == 0 {
		t.Skip("endurance too high to kill lines in budget")
	}
	for i := 0; i < 40000 && c.Stats().Resurrections == 0; i++ {
		addr := r.Intn(c.LogicalLines())
		var zero block.Block
		c.Write(addr, &zero)
	}
	if c.Stats().Resurrections == 0 {
		t.Fatal("Comp+WF never resurrected a dead line")
	}
}

func TestCompStaysDeadPermanently(t *testing.T) {
	cfg := DefaultConfig(Comp, testMemory(20, 0.1))
	cfg.StartGapPsi = 3
	c := mustController(t, cfg)
	r := rng.New(13)
	for i := 0; i < 60000 && c.DeadLines() == 0; i++ {
		addr := r.Intn(c.LogicalLines())
		data := randomBlock(r.Uint64())
		c.Write(addr, &data)
	}
	if c.DeadLines() == 0 {
		t.Skip("endurance too high to kill lines in budget")
	}
	before := c.DeadLines()
	for i := 0; i < 20000; i++ {
		addr := r.Intn(c.LogicalLines())
		var zero block.Block
		c.Write(addr, &zero)
	}
	if c.Stats().Resurrections != 0 {
		t.Fatal("Comp must not resurrect lines")
	}
	if c.DeadLines() < before {
		t.Fatal("dead count decreased without resurrection")
	}
}

func TestFNWRoundTripAndInversionCount(t *testing.T) {
	cfg := DefaultConfig(CompWF, testMemory(1e8, 0.15))
	cfg.UseFNW = true
	c := mustController(t, cfg)
	r := rng.New(17)
	for i := 0; i < 300; i++ {
		addr := r.Intn(c.LogicalLines())
		data := randomBlock(r.Uint64())
		if out := c.Write(addr, &data); out.Stored {
			got, _, err := c.Read(addr)
			if err != nil || !block.Equal(&got, &data) {
				t.Fatalf("FNW round trip broken at write %d: %v", i, err)
			}
		}
	}
	if c.Stats().FNWInversions == 0 {
		t.Fatal("random data never triggered an FNW inversion")
	}
}

// TestFNWPlainPathWhenCheap: a write that flips one cell is far below
// half the window, so FNW must store it plainly, programming just that cell.
func TestFNWPlainPathWhenCheap(t *testing.T) {
	cfg := DefaultConfig(Baseline, testMemory(1e8, 0.15))
	cfg.UseFNW = true
	c := mustController(t, cfg)
	data := randomBlock(5)
	c.Write(0, &data)
	before := c.Stats()
	data[0] ^= 0x01
	if out := c.Write(0, &data); !out.Stored {
		t.Fatal("1-bit update not stored")
	}
	after := c.Stats()
	if after.FNWInversions != before.FNWInversions {
		t.Fatal("1-bit change must not invert")
	}
	if flips := after.BitFlips - before.BitFlips; flips != 1 {
		t.Fatalf("1-bit change programmed %d cells, want 1", flips)
	}
	if got, _, err := c.Read(0); err != nil || !block.Equal(&got, &data) {
		t.Fatalf("read-back after plain FNW write: %v", err)
	}
}

func TestModelBasedRandomOperations(t *testing.T) {
	// Shadow-model invariant: any line whose last write was Stored and that
	// is not dead must read back the last written value, across all systems
	// and arbitrary operation interleavings.
	for _, sys := range []SystemKind{Baseline, Comp, CompW, CompWF} {
		t.Run(sys.String(), func(t *testing.T) {
			cfg := DefaultConfig(sys, testMemory(3000, 0.2))
			cfg.StartGapPsi = 7
			cfg.IntraCounterBits = 5
			c := mustController(t, cfg)
			r := rng.New(uint64(sys))
			shadow := make(map[int]block.Block)
			stored := make(map[int]bool)
			for op := 0; op < 30000; op++ {
				addr := r.Intn(c.LogicalLines())
				if r.Intn(4) == 0 && stored[addr] {
					got, _, err := c.Read(addr)
					if err != nil {
						// Reads only fail on dead lines.
						continue
					}
					want := shadow[addr]
					if !block.Equal(&got, &want) {
						t.Fatalf("op %d: addr %d read mismatch", op, addr)
					}
					continue
				}
				var data block.Block
				switch r.Intn(4) {
				case 0:
					data = compressibleBlock(r.Uint64())
				case 1:
					data = randomBlock(r.Uint64())
				case 2: // small FPC-friendly integers
					for w := 0; w < 8; w++ {
						data.SetWord(w, uint64(r.Intn(256)))
					}
				default: // sparse update of previous content
					data = shadow[addr]
					data.SetWord(r.Intn(8), r.Uint64())
				}
				out := c.Write(addr, &data)
				if out.Stored {
					shadow[addr] = data
					stored[addr] = true
				} else {
					stored[addr] = false
				}
			}
			// Post-hoc: every stored, live line must match the shadow.
			for addr, ok := range stored {
				if !ok {
					continue
				}
				got, _, err := c.Read(addr)
				if err != nil {
					continue // died after its last store via movement copy
				}
				want := shadow[addr]
				if !block.Equal(&got, &want) {
					t.Fatalf("final check: addr %d mismatch", addr)
				}
			}
		})
	}
}

func TestStatsConsistency(t *testing.T) {
	cfg := DefaultConfig(CompWF, testMemory(500, 0.2))
	cfg.StartGapPsi = 11
	c := mustController(t, cfg)
	r := rng.New(23)
	for i := 0; i < 20000; i++ {
		addr := r.Intn(c.LogicalLines())
		data := compressibleBlock(r.Uint64())
		c.Write(addr, &data)
	}
	s := c.Stats()
	if s.Writes == 0 || s.BitFlips == 0 {
		t.Fatal("no work recorded")
	}
	if s.CompressedWrites > s.Writes {
		t.Fatal("compressed writes exceed total writes")
	}
	if s.DroppedWrites > s.Writes {
		t.Fatal("dropped writes exceed total writes")
	}
	if int(s.DeathFaultCells.N()) < c.DeadLines()-int(s.Resurrections) {
		t.Fatal("death events under-recorded")
	}
	if c.DeadFraction() < 0 || c.DeadFraction() > 1 {
		t.Fatalf("dead fraction = %v", c.DeadFraction())
	}
}

func TestMetadataUpdateFrequencies(t *testing.T) {
	// §III-B: start-pointer updates are rare (rotation or fault-driven
	// sliding only) and encoding updates track size changes, far below
	// one per write for size-stable traffic.
	cfg := DefaultConfig(Comp, testMemory(1e9, 0.15))
	c := mustController(t, cfg)
	for i := 0; i < 5000; i++ {
		data := compressibleBlock(3) // constant content class and size
		data.SetWord(7, data.Word(0)+uint64(i%50))
		c.Write(i%c.LogicalLines(), &data)
	}
	s := c.Stats()
	if s.StartPointerUpdates != 0 {
		t.Errorf("start pointer moved %d times without faults or rotation", s.StartPointerUpdates)
	}
	if s.EncodingUpdates > s.Writes/10 {
		t.Errorf("encoding updated %d times over %d size-stable writes", s.EncodingUpdates, s.Writes)
	}
}

func TestSchemeAccessors(t *testing.T) {
	cfg := DefaultConfig(Comp, testMemory(1e6, 0.15))
	cfg.Scheme = ecp.New(2)
	c := mustController(t, cfg)
	if c.Scheme().Name() != "ECP-2" {
		t.Fatalf("scheme = %s", c.Scheme().Name())
	}
	if c.System() != Comp {
		t.Fatal("system accessor wrong")
	}
	if c.PhysicalLines() != 18 || c.LogicalLines() != 16 {
		t.Fatalf("lines: phys %d logical %d", c.PhysicalLines(), c.LogicalLines())
	}
}

func BenchmarkWriteCompressible(b *testing.B) {
	cfg := DefaultConfig(CompWF, testMemory(1e9, 0.15))
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	blocks := make([]block.Block, 64)
	for i := range blocks {
		blocks[i] = compressibleBlock(r.Uint64())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Write(i%c.LogicalLines(), &blocks[i%len(blocks)])
	}
}

func BenchmarkWriteIncompressible(b *testing.B) {
	cfg := DefaultConfig(CompWF, testMemory(1e9, 0.15))
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	blocks := make([]block.Block, 64)
	for i := range blocks {
		blocks[i] = randomBlock(r.Uint64())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Write(i%c.LogicalLines(), &blocks[i%len(blocks)])
	}
}
