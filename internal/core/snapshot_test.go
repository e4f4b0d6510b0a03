package core

import (
	"bytes"
	"strings"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
)

// driveTraffic applies a deterministic mixed write stream.
func driveTraffic(c *Controller, seed uint64, writes int) {
	r := rng.New(seed)
	for i := 0; i < writes; i++ {
		addr := r.Intn(c.LogicalLines())
		var data block.Block
		if r.Intn(3) == 0 {
			data = randomBlock(r.Uint64())
		} else {
			data = compressibleBlock(r.Uint64())
		}
		c.Write(addr, &data)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := DefaultConfig(CompWF, testMemory(800, 0.2))
	cfg.StartGapPsi = 13
	cfg.IntraCounterBits = 5
	orig := mustController(t, cfg)
	driveTraffic(orig, 9, 20000)

	var snap bytes.Buffer
	if err := orig.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	restored := mustController(t, cfg)
	if err := restored.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	// State equivalence: dead counts and every line's logical content.
	if restored.DeadLines() != orig.DeadLines() {
		t.Fatalf("dead lines %d != %d", restored.DeadLines(), orig.DeadLines())
	}
	for addr := 0; addr < orig.LogicalLines(); addr++ {
		a, _, errA := orig.Read(addr)
		b, _, errB := restored.Read(addr)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("addr %d readability differs: %v vs %v", addr, errA, errB)
		}
		if errA == nil && !block.Equal(&a, &b) {
			t.Fatalf("addr %d content differs after restore", addr)
		}
	}
}

func TestSnapshotResumeIsDeterministic(t *testing.T) {
	// Continuing from a snapshot must be bit-for-bit identical to never
	// having paused: run A straight through; run B pauses midway,
	// restores into a fresh controller, and continues.
	cfg := DefaultConfig(CompWF, testMemory(600, 0.2))
	cfg.StartGapPsi = 7
	cfg.IntraCounterBits = 5

	straight := mustController(t, cfg)
	driveTraffic(straight, 11, 12000)
	driveTraffic(straight, 12, 12000)

	paused := mustController(t, cfg)
	driveTraffic(paused, 11, 12000)
	var snap bytes.Buffer
	if err := paused.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	resumed := mustController(t, cfg)
	if err := resumed.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	driveTraffic(resumed, 12, 12000)

	if straight.DeadLines() != resumed.DeadLines() {
		t.Fatalf("dead lines diverged: %d vs %d", straight.DeadLines(), resumed.DeadLines())
	}
	for addr := 0; addr < straight.LogicalLines(); addr++ {
		a, _, errA := straight.Read(addr)
		b, _, errB := resumed.Read(addr)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("addr %d readability diverged", addr)
		}
		if errA == nil && !block.Equal(&a, &b) {
			t.Fatalf("addr %d content diverged after resume", addr)
		}
	}
	// Physical wear must match too: compare a sample of fault bitmaps.
	for phys := 0; phys < straight.PhysicalLines(); phys++ {
		la := straight.Memory().Peek(phys)
		lb := resumed.Memory().Peek(phys)
		if (la == nil) != (lb == nil) {
			t.Fatalf("line %d materialization diverged", phys)
		}
		if la == nil {
			continue
		}
		if la.Faults().Words() != lb.Faults().Words() {
			t.Fatalf("line %d fault bitmap diverged", phys)
		}
		if la.Writes() != lb.Writes() {
			t.Fatalf("line %d write count diverged", phys)
		}
	}
}

func TestSnapshotStatsReset(t *testing.T) {
	cfg := DefaultConfig(Comp, testMemory(1e6, 0.15))
	orig := mustController(t, cfg)
	driveTraffic(orig, 3, 500)
	var snap bytes.Buffer
	if err := orig.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := mustController(t, cfg)
	driveTraffic(restored, 4, 10) // pre-restore noise must be wiped
	if err := restored.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s := restored.Stats(); s.Writes != 0 {
		t.Fatalf("stats not reset: %d writes", s.Writes)
	}
}

func TestSnapshotRejectsJunk(t *testing.T) {
	cfg := DefaultConfig(Comp, testMemory(1e6, 0.15))
	c := mustController(t, cfg)
	if err := c.ReadSnapshot(strings.NewReader("BOGUSDATA")); err == nil {
		t.Fatal("junk snapshot accepted")
	}
	// Mismatched shape: snapshot from a bigger controller.
	bigCfg := cfg
	bigCfg.Memory.Geometry.LinesPerBank = 17
	big := mustController(t, bigCfg)
	driveTraffic(big, 5, 200)
	var snap bytes.Buffer
	if err := big.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadSnapshot(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("mismatched-shape snapshot accepted")
	}
	// Truncated stream.
	var ok bytes.Buffer
	if err := c.WriteSnapshot(&ok); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadSnapshot(bytes.NewReader(ok.Bytes()[:ok.Len()/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot on a fresh
// controller: it must either fail cleanly or restore a controller on
// which a Read and a Write of every logical line finish without a panic.
// The corpus starts from a real, partly worn-out Comp+WF snapshot.
func FuzzReadSnapshot(f *testing.F) {
	cfg := DefaultConfig(CompWF, testMemory(800, 0.2))
	cfg.StartGapPsi = 13
	cfg.IntraCounterBits = 5
	seed, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	driveTraffic(seed, 9, 6000)
	var snap bytes.Buffer
	if err := seed.WriteSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add([]byte(ctrlSnapshotMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := mustController(t, cfg)
		if err := c.ReadSnapshot(bytes.NewReader(data)); err != nil {
			return
		}
		for addr := 0; addr < c.LogicalLines(); addr++ {
			_, _, _ = c.Read(addr)
			var line block.Block
			if addr%2 == 0 {
				line = compressibleBlock(uint64(addr))
			} else {
				line = randomBlock(uint64(addr))
			}
			c.Write(addr, &line)
		}
	})
}
