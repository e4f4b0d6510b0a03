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
type Line struct {
	data      block.Block
	remaining [block.Bits]uint32
	faults    ecc.FaultSet
	writes    uint64
}

// Data returns the physically stored values (stuck cells included).
func (l *Line) Data() *block.Block { return &l.data }

// Faults returns the line's stuck-cell set.
func (l *Line) Faults() *ecc.FaultSet { return &l.faults }

// Writes returns the number of write operations applied to the line.
func (l *Line) Writes() uint64 { return l.writes }

// Remaining returns the remaining write budget of cell i (0 for stuck cells).
func (l *Line) Remaining(i int) uint32 { return l.remaining[i] }

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
	// the flip/stuck/SET/RESET tallies are popcounts over masked words. Only
	// cells that actually program (rare relative to window bits) are visited
	// individually, for wear accounting.
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
		// Wear the programmed cells, ascending, so NewFaults order matches
		// the per-bit implementation this replaces.
		for p := prog; p != 0; p &= p - 1 {
			cell := lo + bits.TrailingZeros64(p)
			l.remaining[cell]--
			if l.remaining[cell] == 0 {
				l.faults.Add(cell)
				res.NewFaults = append(res.NewFaults, cell)
			}
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
	// Each line's endurance population derives deterministically from
	// (seed, addr), independent of touch order.
	r := rng.New(m.cfg.Seed ^ uint64(addr)*0x9e3779b97f4a7c15 + 0x1234_5678)
	l := &Line{}
	for i := range l.remaining {
		l.remaining[i] = m.cfg.Endurance.sample(r)
	}
	m.lines[addr] = l
	return l
}
