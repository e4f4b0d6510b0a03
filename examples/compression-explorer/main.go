// Compression explorer: run BDI, FPC, and the BEST-of selector on a tour
// of data patterns — from all-zero lines to pointer-dense heaps — and show
// which algorithm wins where and what that costs on the read path.
//
// Run with: go run ./examples/compression-explorer
package main

import (
	"fmt"
	"os"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/rng"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "compression-explorer:", err)
		os.Exit(1)
	}
}

func run() error {
	r := rng.New(11)
	patterns := []struct {
		name  string
		build func() block.Block
	}{
		{"zero line (fresh allocation)", func() block.Block {
			return block.Block{}
		}},
		{"repeated sentinel value", func() block.Block {
			var b block.Block
			for i := 0; i < 8; i++ {
				b.SetWord(i, 0xdeadbeefdeadbeef)
			}
			return b
		}},
		{"array of near-equal int64 counters", func() block.Block {
			var b block.Block
			base := uint64(1 << 40)
			for i := 0; i < 8; i++ {
				b.SetWord(i, base+uint64(r.Intn(100)))
			}
			return b
		}},
		{"struct of small int32 fields", func() block.Block {
			var b block.Block
			for i := 0; i < 16; i++ {
				v := uint32(r.Intn(200)) - 100
				b[i*4] = byte(v)
				b[i*4+1] = byte(v >> 8)
				b[i*4+2] = byte(v >> 16)
				b[i*4+3] = byte(v >> 24)
			}
			return b
		}},
		{"pointer-dense heap object", func() block.Block {
			var b block.Block
			heapBase := uint64(0xc000_0000_0000)
			for i := 0; i < 8; i++ {
				b.SetWord(i, heapBase+uint64(r.Intn(1<<20))*8)
			}
			return b
		}},
		{"encrypted/compressed payload (random)", func() block.Block {
			var b block.Block
			for i := 0; i < 8; i++ {
				b.SetWord(i, r.Uint64())
			}
			return b
		}},
	}

	fmt.Printf("%-40s %6s %6s %6s  %-14s %s\n",
		"pattern", "BDI", "FPC", "BEST", "winner", "read+cycles")
	// One Compressor per column: each result aliases its own scratch buffer.
	bdiOnly := compress.Compressor{DisableFPC: true}
	fpcOnly := compress.Compressor{DisableBDI: true}
	var bestOf compress.Compressor
	for _, p := range patterns {
		b := p.build()
		bdi := bdiOnly.Compress(&b)
		fpc := fpcOnly.Compress(&b)
		best := bestOf.Compress(&b)
		// Verify the round trip while we're here.
		back, err := bestOf.Decompress(best.Encoding, best.Data)
		if err != nil {
			return err
		}
		if !block.Equal(&b, &back) {
			return fmt.Errorf("round trip failed for %q", p.name)
		}
		fmt.Printf("%-40s %5dB %5dB %5dB  %-14s %d\n",
			p.name, bdi.Size(), fpc.Size(), best.Size(),
			best.Encoding, best.Encoding.DecompressionCycles())
	}

	fmt.Println("\nThe controller stores whichever output is smaller (Table I of the")
	fmt.Println("paper); the 5-bit encoding metadata routes reads to the right")
	fmt.Println("decompressor, costing 1 cycle (BDI) or 5 cycles (FPC).")
	return nil
}
