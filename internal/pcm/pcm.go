// Package pcm models the physical phase-change-memory substrate of the
// DSN'17 paper's baseline system (Fig 2): an ECC-DIMM organization of
// 8-bit PCM chips forming 72-bit ranks, banks of 64-byte lines, per-cell
// finite write endurance with process variation, stuck-at hard faults, and
// the chip-level read-modify-write circuit that performs differential
// writes (DW).
//
// The package is deliberately "dumb": it tracks physical cell state (stored
// values, wear, faults) and leaves every policy decision — compression,
// window placement, wear-leveling, error tolerance — to internal/core and
// internal/wear, mirroring the paper's split between the PCM chips and the
// on-CPU memory controller.
//
// Each line keeps its cells' remaining write budgets bit-sliced: k
// bit-planes of remaining−1, 8 words of 64 cells per plane, where k is the
// bit length of the line's largest budget minus one (0 when every budget
// is 1). A differential write wears all programmed cells of a word with
// one ripple-borrow subtraction, and the borrow out of the top plane is
// the set of cells that wore out.
// Wear state costs 8·k·8 bytes per line — 576 B at quick scale (k = 9),
// about 1.5 KB at the paper's 10⁷ endurance (k = 24) — against the 2 KB
// of one uint32 per cell.
package pcm

import (
	"fmt"
	"math"
	"math/bits"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/rng"
)

// Geometry describes the DIMM organization of the memory (Table II):
// channels x DIMMs x ranks x banks, with each bank holding LinesPerBank
// 64-byte lines interleaved over the rank's nine chips.
type Geometry struct {
	Channels        int
	DIMMsPerChannel int
	RanksPerDIMM    int
	BanksPerRank    int
	LinesPerBank    int
}

// Validate returns an error if any dimension is non-positive.
func (g Geometry) Validate() error {
	if g.Channels < 1 || g.DIMMsPerChannel < 1 || g.RanksPerDIMM < 1 ||
		g.BanksPerRank < 1 || g.LinesPerBank < 1 {
		return fmt.Errorf("pcm: invalid geometry %+v: all dimensions must be >= 1", g)
	}
	return nil
}

// Banks returns the total number of banks.
func (g Geometry) Banks() int {
	return g.Channels * g.DIMMsPerChannel * g.RanksPerDIMM * g.BanksPerRank
}

// TotalLines returns the total number of 64-byte lines.
func (g Geometry) TotalLines() int { return g.Banks() * g.LinesPerBank }

// Location identifies a line's physical position.
type Location struct {
	Bank int // global bank index
	Row  int // line index within the bank
}

// Decode maps a global line address to its bank and row. Lines are
// interleaved across banks (consecutive addresses hit consecutive banks),
// the standard mapping for bank-level parallelism.
func (g Geometry) Decode(lineAddr int) Location {
	banks := g.Banks()
	return Location{Bank: lineAddr % banks, Row: lineAddr / banks}
}

// Encode is the inverse of Decode.
func (g Geometry) Encode(loc Location) int {
	return loc.Row*g.Banks() + loc.Bank
}

// Endurance is the statistical cell-wear model: each cell's write budget is
// drawn from Normal(Mean, (CoV*Mean)^2), truncated below at 1, modeling
// process variation (paper: mean 1e7, CoV 0.15; Fig 13 uses CoV 0.25).
type Endurance struct {
	Mean float64
	CoV  float64
}

// DefaultEndurance mirrors Table II (mean 1e7 writes, variance 0.15). Real
// experiments scale Mean down (see internal/lifetime) for tractability.
func DefaultEndurance() Endurance { return Endurance{Mean: 1e7, CoV: 0.15} }

// sample draws one cell's endurance.
func (e Endurance) sample(r *rng.Rand) uint32 {
	v := e.Mean * (1 + e.CoV*r.NormFloat64())
	if v < 1 {
		v = 1
	}
	if v > math.MaxUint32 {
		v = math.MaxUint32
	}
	return uint32(v)
}

// Config parameterizes a Memory.
type Config struct {
	Geometry  Geometry
	Endurance Endurance
	// Seed drives per-cell endurance sampling; identical seeds give
	// identical cell populations.
	Seed uint64
}

// Line is the physical state of one 64-byte memory line: the values the
// cells currently hold, each cell's remaining write budget, and the set of
// cells that have worn out. Stuck cells keep their last physical value
// forever; the ECC scheme (modeled in internal/core) supplies the logical
// value on reads.
//
// The budgets are bit-sliced (see the package doc). Planes are stored
// word-major — bit b of wear[w*k+p] is bit p of cell w*64+b's remaining−1
// — so a write decrements all programmed cells of word w with a ripple
// borrow through k adjacent words.
type Line struct {
	data   block.Block
	faults ecc.FaultSet
	writes uint64
	k      int
	wear   []uint64
}

// Data returns the physically stored values (stuck cells included).
func (l *Line) Data() *block.Block { return &l.data }

// Faults returns the line's stuck-cell set.
func (l *Line) Faults() *ecc.FaultSet { return &l.faults }

// Writes returns the number of write operations applied to the line.
func (l *Line) Writes() uint64 { return l.writes }

// Remaining returns the remaining write budget of cell i (0 for stuck cells).
func (l *Line) Remaining(i int) uint32 {
	if l.faults.Contains(i) {
		return 0
	}
	w, b := i>>6, uint(i&63)
	var v uint32
	for p, x := range l.wear[w*l.k : (w+1)*l.k] {
		v |= uint32(x>>b&1) << p
	}
	return v + 1
}

// WriteResult reports the outcome of one differential write.
type WriteResult struct {
	// FlipsNeeded is the Hamming distance between old and new data within
	// the window: the number of cell programs DW attempts.
	FlipsNeeded int
	// FlipsWritten is the number of healthy cells actually programmed.
	FlipsWritten int
	// Sets and Resets split FlipsWritten into SET (0->1) and RESET (1->0)
	// pulses for energy accounting (see EnergyModel).
	Sets, Resets int
	// StuckFlips is the number of differing bits that landed on stuck
	// cells (they retain their old value; ECC must cover them).
	StuckFlips int
	// NewFaults lists cells that wore out during this write.
	NewFaults []int
}

// WriteWindow performs a differential write of newData's byte window
// [startByte, startByte+lengthBytes) into the same window of the line:
// the chip's RMW circuit reads the old value and programs only differing
// cells. Healthy differing cells are programmed and wear by one write; a
// cell whose budget is exhausted by the program becomes stuck at the value
// it was last programmed to. Stuck cells are never programmed again: a
// differing bit on a stuck cell is reported as a StuckFlip and the cell
// retains its frozen value (ECC must cover it).
//
// Cells outside the window are untouched, which is exactly what confining
// writes to a compression window buys (paper §III).
func (l *Line) WriteWindow(newData *block.Block, startByte, lengthBytes int) WriteResult {
	var res WriteResult
	l.writes++
	// Whole 64-bit words at a time: the RMW circuit's compare is a XOR and
	// the flip/stuck/SET/RESET tallies are popcounts over masked words, and
	// wear is a bit-sliced subtraction. Only cells that wear out are visited
	// individually.
	start := startByte * 8
	end := start + lengthBytes*8
	for w := start >> 6; w <= (end-1)>>6 && w < block.Bits/64; w++ {
		lo := w << 6
		mask := ^uint64(0)
		if start > lo {
			mask &= ^uint64(0) << (uint(start-lo) & 63)
		}
		if end < lo+64 {
			mask &= 1<<(uint(end-lo)&63) - 1
		}
		old := l.data.Word(w)
		nv := newData.Word(w)
		diff := (old ^ nv) & mask
		if diff == 0 {
			continue
		}
		res.FlipsNeeded += bits.OnesCount64(diff)
		stuck := diff & l.faults.Word(w)
		res.StuckFlips += bits.OnesCount64(stuck)
		prog := diff &^ stuck
		if prog == 0 {
			continue
		}
		res.FlipsWritten += bits.OnesCount64(prog)
		res.Sets += bits.OnesCount64(prog & nv)
		res.Resets += bits.OnesCount64(prog &^ nv)
		l.data.SetWord(w, old^prog)
		// Wear every programmed cell at once: subtract prog from the word's
		// counters with a ripple borrow through the planes. A cell's borrow
		// passes plane p when its bit there was 0, and stops at its first 1.
		borrow := prog
		planes := l.wear[w*l.k : (w+1)*l.k]
		for p, x := range planes {
			planes[p] = x ^ borrow
			borrow &^= x
			if borrow == 0 {
				break
			}
		}
		// A borrow out of the top plane means remaining−1 was 0: the cell
		// wore out. Ascending order keeps NewFaults sorted by cell.
		for ; borrow != 0; borrow &= borrow - 1 {
			cell := lo + bits.TrailingZeros64(borrow)
			l.faults.Add(cell)
			res.NewFaults = append(res.NewFaults, cell)
		}
	}
	return res
}

// Write performs a full-line differential write.
func (l *Line) Write(newData *block.Block) WriteResult {
	return l.WriteWindow(newData, 0, block.Size)
}

// Memory is a lazily materialized array of lines. Lines are allocated (and
// their cell endurances sampled) on first touch, so simulating a trace that
// touches a fraction of a large memory stays cheap.
type Memory struct {
	cfg   Config
	lines []*Line
}

// New creates a Memory. It panics on invalid geometry (programmer error).
func New(cfg Config) *Memory {
	if err := cfg.Geometry.Validate(); err != nil {
		panic(err)
	}
	return &Memory{
		cfg:   cfg,
		lines: make([]*Line, cfg.Geometry.TotalLines()),
	}
}

// NumLines returns the total line count.
func (m *Memory) NumLines() int { return len(m.lines) }

// Geometry returns the memory's geometry.
func (m *Memory) Geometry() Geometry { return m.cfg.Geometry }

// Line returns the line at the given global address, materializing it on
// first touch. It panics if addr is out of range (programmer error).
func (m *Memory) Line(addr int) *Line {
	l := m.lines[addr]
	if l == nil {
		l = m.materialize(addr)
	}
	return l
}

// Peek returns the line if it has been materialized, else nil.
func (m *Memory) Peek(addr int) *Line { return m.lines[addr] }

func (m *Memory) materialize(addr int) *Line {
	b := m.budgets(addr)
	l := newLine(&b)
	m.lines[addr] = l
	return l
}

// budgets samples the write budget of every cell of the line at addr. Each
// line's population derives deterministically from (seed, addr),
// independent of touch order.
func (m *Memory) budgets(addr int) [block.Bits]uint32 {
	r := rng.New(m.cfg.Seed ^ uint64(addr)*0x9e3779b97f4a7c15 + 0x1234_5678)
	var b [block.Bits]uint32
	for i := range b {
		b[i] = m.cfg.Endurance.sample(r)
	}
	return b
}

// newLine builds a blank line whose cells have the given write budgets
// (each >= 1).
func newLine(budget *[block.Bits]uint32) *Line {
	var all uint32
	for _, v := range budget {
		all |= v - 1
	}
	k := bits.Len32(all) // the bit length of the largest budget−1
	l := &Line{k: k, wear: make([]uint64, block.Bits/64*k)}
	for w := 0; w < block.Bits/64; w++ {
		planes := transposeCells(budget[w*64 : w*64+64])
		copy(l.wear[w*k:(w+1)*k], planes[:k])
	}
	return l
}

// transposeCells returns the bit-planes of 64 cells' remaining−1: bit b of
// plane p is bit p of cell b's budget−1. It is a 64×64 bit-matrix
// transpose (Hacker's Delight §7-3) with one row per cell. The values fit
// 32 bits, so the first round only packs cells b and b+32 into one row;
// five rounds of masked word swaps then transpose both 32×32 halves at
// once, instead of moving one bit at a time.
func transposeCells(cells []uint32) [32]uint64 {
	var a [32]uint64
	for b := range a {
		a[b] = uint64(cells[b]-1) | uint64(cells[b+32]-1)<<32
	}
	for j, m := 16, uint64(0x0000FFFF0000FFFF); j != 0; j, m = j>>1, m^m<<(j>>1) {
		for r := 0; r < 32; r = (r + j + 1) &^ j {
			t := (a[r]>>uint(j) ^ a[r+j]) & m
			a[r] ^= t << uint(j)
			a[r+j] ^= t
		}
	}
	return a
}
