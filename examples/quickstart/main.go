// Quickstart: write compressed data through the compression-window PCM
// controller, watch differential writes confine bit flips to the window,
// inject wear until cells stick, and see the window slide to keep the line
// alive far past ECP-6's nominal 6-fault limit.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/core"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/rng"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A tiny PCM DIMM with deliberately fragile cells (mean endurance of
	// 400 writes) so wear-out is visible in seconds.
	substrate := pcm.Config{
		Geometry: pcm.Geometry{
			Channels: 1, DIMMsPerChannel: 1, RanksPerDIMM: 1,
			BanksPerRank: 2, LinesPerBank: 9,
		},
		Endurance: pcm.Endurance{Mean: 400, CoV: 0.2},
		Seed:      42,
	}
	ctrl, err := core.New(core.DefaultConfig(core.CompWF, substrate))
	if err != nil {
		return err
	}
	fmt.Printf("System: %s with %s over %d logical lines\n\n",
		ctrl.System(), ctrl.Scheme().Name(), ctrl.LogicalLines())

	// 1. Compression basics: a narrow-value line shrinks 4x.
	var data block.Block
	base := uint64(0x1000_2000_3000)
	for i := 0; i < 8; i++ {
		data.SetWord(i, base+uint64(i*3))
	}
	var comp compress.Compressor
	res := comp.Compress(&data)
	fmt.Printf("Step 1 - compression: 64B line -> %dB via %v (ratio %.2f)\n",
		res.Size(), res.Encoding, res.Ratio())

	// 2. A write through the controller lands in a small window.
	out := ctrl.Write(0, &data)
	fmt.Printf("Step 2 - first write: stored=%v compressed=%v window=[%d,%d) flips=%d\n",
		out.Stored, out.Compressed, out.WindowStart, out.WindowStart+out.Size, out.FlipsWritten)

	// 3. Rewrites under differential writes flip only changed cells.
	data.SetWord(3, base+999)
	out = ctrl.Write(0, &data)
	fmt.Printf("Step 3 - rewrite one word: flips=%d (of %d window cells)\n",
		out.FlipsWritten, out.Size*8)

	// 4. Hammer the line until cells wear out; the window slides and the
	// line survives far beyond 6 stuck cells.
	r := rng.New(7)
	var died bool
	writes := 0
	for !died && writes < 200000 {
		for i := 0; i < 8; i++ {
			data.SetWord(i, base+uint64(r.Intn(100)))
		}
		o := ctrl.Write(0, &data)
		writes++
		died = o.Died
	}
	stats := ctrl.Stats()
	fmt.Printf("Step 4 - wear-out: line survived %d writes, died with %.0f stuck cells (ECP-6 alone allows 6)\n",
		writes, stats.DeathFaultCells.Mean())

	// 5. Read back through the decompression path.
	var fresh block.Block
	fresh.SetWord(0, 0xabcd)
	ctrl.Write(1, &fresh)
	got, cycles, err := ctrl.Read(1)
	if err != nil {
		return err
	}
	fmt.Printf("Step 5 - read-back: data intact=%v, decompression latency %d cycles\n",
		block.Equal(&got, &fresh), cycles)

	fmt.Printf("\nController totals: %d writes, %d bit flips, %d uncorrectable, %d window rotations\n",
		stats.Writes, stats.BitFlips, stats.UncorrectableErrors, stats.Rotations)
	return nil
}
