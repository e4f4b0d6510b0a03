// Package experiments implements the paper's evaluation: one entry point
// per table and figure, shared by cmd/figures (terminal reproduction) and
// the repository-level benchmarks. Each function regenerates the same rows
// or series the paper reports, on the scaled substrate of a config.Scale.
package experiments

import (
	"fmt"
	"math/bits"
	"sort"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

// FigureOrder lists the applications in the order the paper's figures use.
var FigureOrder = []string{
	"GemsFDTD", "lbm", "bzip2", "leslie3d", "hmmer", "mcf", "gobmk",
	"bwaves", "astar", "calculix", "sjeng", "gcc", "zeusmp", "milc",
	"cactusADM",
}

// profileFor fetches a profile or fails loudly (FigureOrder is static).
func profileFor(name string) (workload.Profile, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return workload.Profile{}, fmt.Errorf("experiments: %w", err)
	}
	return p, nil
}

// generatorFor builds the standard generator for an app at a trace scale.
func generatorFor(name string, lines int, seed uint64) (*workload.Generator, error) {
	p, err := profileFor(name)
	if err != nil {
		return nil, err
	}
	return workload.NewGenerator(p, lines, seed)
}

// hottestAddr returns the most frequently written address of a trace.
func hottestAddr(events []trace.Event) int {
	counts := make(map[int]int)
	for i := range events {
		counts[events[i].Addr]++
	}
	best, bestN := 0, -1
	for addr, n := range counts {
		if n > bestN || (n == bestN && addr < best) {
			best, bestN = addr, n
		}
	}
	return best
}

// hottestAddrs returns the n most frequently written addresses, descending.
func hottestAddrs(events []trace.Event, n int) []int {
	counts := make(map[int]int)
	for i := range events {
		counts[events[i].Addr]++
	}
	addrs := make([]int, 0, len(counts))
	for addr := range counts {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if counts[addrs[i]] != counts[addrs[j]] {
			return counts[addrs[i]] > counts[addrs[j]]
		}
		return addrs[i] < addrs[j]
	})
	if len(addrs) > n {
		addrs = addrs[:n]
	}
	return addrs
}

// dwFlips returns the differential-write bit flips of storing cur over prev.
func dwFlips(prev, cur *block.Block) int {
	return block.HammingDistance(prev, cur)
}

// compressedFlips models the Comp write path without faults: the payload is
// stored at the least-significant bytes; only the window cells are written.
// prevStored is the line's physical content and is updated in place.
func compressedFlips(comp *compress.Compressor, prevStored *block.Block, data *block.Block) (flips, size int) {
	res := comp.Compress(data)
	size = res.Size()
	flips = 0
	for i, b := range res.Data {
		flips += bits.OnesCount8(prevStored[i] ^ b)
		prevStored[i] = b
	}
	return flips, size
}
