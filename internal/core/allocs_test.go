package core

import (
	"testing"

	"pcmcomp/internal/pcm"
	"pcmcomp/internal/workload"
)

// TestWriteHotAllocs guards the allocation-free write kernel: after
// warmup (lines materialized, compressor scratch sized), a steady-state
// Comp+WF write must never touch the heap, whether it compresses itself
// (Write) or is handed its precomputed compression (WriteCompressed, the
// lifetime replay's later passes). It is the testing counterpart of
// BenchmarkWriteHot and of cmd/bench's -check gate; the setup mirrors
// internal/benchmarks deliberately. The Dying cases lower the endurance
// until cells wear out inside the measured window, so the fault path is
// held to the same zero.
func TestWriteHotAllocs(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		memoized  bool
		endurance float64
	}{
		{"Write", false, 1e9},
		{"WriteCompressed", true, 1e9},
		{"WriteDying", false, 200},
		{"WriteCompressedDying", true, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := pcm.Config{
				Geometry: pcm.Geometry{
					Channels: 1, DIMMsPerChannel: 1, RanksPerDIMM: 1,
					BanksPerRank: 4, LinesPerBank: 33,
				},
				Endurance: pcm.Endurance{Mean: tc.endurance, CoV: 0.15},
				Seed:      1,
			}
			ctrl, err := New(DefaultConfig(CompWF, mem))
			if err != nil {
				t.Fatal(err)
			}
			logical := ctrl.LogicalLines()
			gen, err := workload.NewGenerator(prof, logical, 1)
			if err != nil {
				t.Fatal(err)
			}
			events := gen.GenerateTrace(2048)
			results := precompute(ctrl, events)
			write := func(i int) {
				ev := &events[i%len(events)]
				if tc.memoized {
					ctrl.WriteCompressed(ev.Addr%logical, &ev.Data, results[i%len(events)])
				} else {
					ctrl.Write(ev.Addr%logical, &ev.Data)
				}
			}
			for i := range events {
				write(i)
			}

			// AllocsPerRun rounds down to whole allocations per run, so
			// each run is a batch of writes: one allocation anywhere in it
			// fails the test. The untimed first run is a second warmup.
			const batch = 2000
			i := 0
			before := ctrl.Stats()
			allocs := testing.AllocsPerRun(1, func() {
				for end := i + batch; i < end; i++ {
					write(i)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s allocates %.0f times in %d writes, want 0", tc.name, allocs, batch)
			}
			died := ctrl.Stats().NewFaults - before.NewFaults
			t.Logf("%d cells wore out in the measured window, %d lines dead", died, ctrl.DeadLines())
			if tc.endurance < 1e9 && died == 0 {
				t.Fatal("no cell wore out in the measured window")
			}
		})
	}
}
