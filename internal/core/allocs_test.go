package core

import (
	"testing"

	"pcmcomp/internal/pcm"
	"pcmcomp/internal/workload"
)

// TestWriteHotAllocs guards the allocation-free write kernel: after
// warmup (lines materialized, per-line payload buffers grown, compressor
// scratch sized), a steady-state Comp+WF write must never touch the heap,
// whether it compresses itself (Write) or is handed its precomputed
// compression (WriteCompressed, the lifetime replay's later passes). It is
// the testing counterpart of BenchmarkWriteHot and of cmd/bench's -check
// gate; the setup mirrors internal/benchmarks deliberately, with endurance
// high enough that no cell dies mid-run (NewFaults appends are the one
// permitted, fault-driven allocation).
func TestWriteHotAllocs(t *testing.T) {
	mem := pcm.Config{
		Geometry: pcm.Geometry{
			Channels: 1, DIMMsPerChannel: 1, RanksPerDIMM: 1,
			BanksPerRank: 4, LinesPerBank: 33,
		},
		Endurance: pcm.Endurance{Mean: 1e9, CoV: 0.15},
		Seed:      1,
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		memoized bool
	}{
		{"Write", false},
		{"WriteCompressed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
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

			i := 0
			allocs := testing.AllocsPerRun(2000, func() {
				write(i)
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s allocates %.2f times per op, want 0", tc.name, allocs)
			}
		})
	}
}
