// Package core implements the DSN'17 paper's primary contribution: a PCM
// memory controller that stores LLC write-backs compressed inside a
// variable-size compression window of each line, and coordinates that
// window with differential writes, intra-line and inter-line wear-leveling,
// and the hard-error tolerance scheme.
//
// The controller supports the four systems the paper evaluates (§IV):
//
//   - Baseline: uncompressed writes + chip-level DW + Start-Gap + ECP-6.
//   - Comp:     naive compression — the window sits at the least-significant
//     bytes and slides only when faults force it.
//   - Comp+W:   adds the per-bank counter-based intra-line wear-leveling
//     that rotates window origins across the line.
//   - Comp+WF:  adds the advanced fault-tolerance definition — a line is
//     never permanently dead; inter-line wear-leveling re-attempts
//     placement so highly compressible data can resurrect it.
//
// Per-line metadata follows §III-B: a 6-bit window start pointer, 5-bit
// encoding, 2-bit saturating counter (SC) and a compressed flag, all fitting
// the spare bits of the ECC chip share.
package core

import (
	"fmt"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/compress/fvc"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/encode"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/wear"
)

// SystemKind selects which of the paper's four evaluated systems the
// controller implements.
type SystemKind int

// The four systems of §IV ("Evaluated systems").
const (
	Baseline SystemKind = iota + 1
	Comp
	CompW
	CompWF
)

// String returns the paper's name for the system.
func (s SystemKind) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case Comp:
		return "Comp"
	case CompW:
		return "Comp+W"
	case CompWF:
		return "Comp+WF"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(s))
	}
}

// Config parameterizes a Controller.
//
// A controller is defined by four independent capabilities — compression,
// intra-line rotation, Start-Gap, and dead-line resurrection — plus the
// hard-error scheme and an optional write-encoder stage. The paper's four
// systems are presets over those capabilities: setting System to a
// SystemKind makes New fill the capability flags to match, which is how
// every pre-registry caller keeps its exact behavior. A composed scheme
// (internal/scheme) instead leaves System zero, names itself with Label,
// and sets the capabilities directly.
type Config struct {
	// System, when non-zero, selects one of the paper's presets and
	// overrides the capability flags below.
	System SystemKind
	// Label names a composed (non-preset) configuration; required when
	// System is zero.
	Label string
	// UseCompression stores write-backs compressed (preset: all but
	// Baseline).
	UseCompression bool
	// UseIntraWL rotates window origins per bank (preset: Comp+W, Comp+WF).
	UseIntraWL bool
	// UseStartGap enables inter-line Start-Gap wear leveling (preset: all
	// four systems).
	UseStartGap bool
	// Resurrect lets Start-Gap copies re-attempt placement on dead lines
	// (preset: Comp+WF).
	Resurrect bool
	// Encoder is an optional write-encoder stage applied to each window
	// before the differential write (nil = none; see internal/encode).
	Encoder encode.Encoder
	// FVC, when non-nil, adds frequent-value compression to the codec race.
	FVC *fvc.Dict
	// DisableBDI / DisableFPC remove a codec from the race (the zero value
	// keeps the paper's BDI+FPC configuration).
	DisableBDI bool
	DisableFPC bool
	// Memory configures the PCM substrate.
	Memory pcm.Config
	// Scheme is the hard-error tolerance scheme (nil selects ECP-6, the
	// paper's baseline).
	Scheme ecc.Scheme
	// Threshold1 is the compressed-size bound (bytes) under which data is
	// always written compressed (Fig 8, step 1).
	Threshold1 int
	// Threshold2 is the size-change bound (bytes): consecutive compressed
	// sizes differing by less than this decrement SC (Fig 8, step 3).
	Threshold2 int
	// UseSCHeuristic enables the Fig 8 bit-flip control flow. The paper's
	// compressed systems all use it; disable for the ablation benches.
	UseSCHeuristic bool
	// UseFNW replaces plain differential writes with Flip-N-Write at the
	// window granularity (extension; DESIGN.md §5).
	UseFNW bool
	// StartGapPsi is the inter-line wear-leveling gap-movement period.
	StartGapPsi int
	// IntraCounterBits and IntraStepBytes configure the per-bank intra-line
	// rotation (paper: 16 bits, 1 byte).
	IntraCounterBits int
	IntraStepBytes   int
	// MaxPlaceRetries bounds re-placement attempts when cells die during
	// the write itself.
	MaxPlaceRetries int
}

// DefaultConfig returns the paper's configuration for the given system on
// the given memory substrate: ECP-6, Start-Gap psi 100, 16-bit/1-byte
// intra-line rotation, SC heuristic on, thresholds 16/8 bytes.
func DefaultConfig(system SystemKind, mem pcm.Config) Config {
	return Config{
		System:           system,
		Memory:           mem,
		Scheme:           ecp.New(6),
		Threshold1:       16,
		Threshold2:       8,
		UseSCHeuristic:   true,
		StartGapPsi:      100,
		IntraCounterBits: 16,
		IntraStepBytes:   1,
		MaxPlaceRetries:  4,
	}
}

// lineMeta is the controller's per-physical-line state. The first four
// fields model the 13-bit in-memory metadata of §III-B plus the compressed
// flag; payload models the logically stored (ECC-corrected) content, which
// a real system reconstructs from the physical cells plus the correction
// metadata.
type lineMeta struct {
	start        uint8 // 6-bit window start pointer (byte offset)
	enc          compress.Encoding
	sc           uint8 // 2-bit saturating counter
	size         uint8 // stored payload size in bytes (0 = never written)
	prevCompSize uint8 // compressed size of the previous write-back
	dead         bool
	payload      []byte
}

func (m *lineMeta) written() bool { return m.size != 0 }

// vacate returns the line to the never-written state. The dead flag tracks
// the physical cells' wear and stays; the payload buffer is kept for reuse
// so Start-Gap moves do not reallocate it.
func (m *lineMeta) vacate() { *m = lineMeta{dead: m.dead, payload: m.payload[:0]} }

// bankState bundles the per-bank mechanisms: Start-Gap over the bank's rows
// and the intra-line rotation counter.
type bankState struct {
	sg   *wear.StartGap
	rot  *wear.IntraLine
	meta []lineMeta // indexed by physical row
}

// Controller is the compression-aware PCM memory controller.
type Controller struct {
	cfg       Config
	mem       *pcm.Memory
	banks     []bankState
	stats     Stats
	deadCount int
	// comp is the controller's reusable compression front-end; its scratch
	// buffer keeps the steady-state write path allocation-free.
	comp compress.Compressor
	// energy prices the SET/RESET pulses for the encoder-stage accounting.
	energy pcm.EnergyModel
	// encNew/encOld/encSel are the write-encoder stage's fixed scratch
	// (window bytes, current cell content, per-word selectors), sized for
	// the largest window so the hot path stays allocation-free.
	encNew, encOld [block.Size]byte
	encSel         [block.Size]uint8
}

// New creates a controller. It returns an error for invalid configuration.
func New(cfg Config) (*Controller, error) {
	switch cfg.System {
	case Baseline, Comp, CompW, CompWF:
		// Preset: the SystemKind defines the capabilities.
		cfg.UseCompression = cfg.System != Baseline
		cfg.UseIntraWL = cfg.System == CompW || cfg.System == CompWF
		cfg.UseStartGap = true
		cfg.Resurrect = cfg.System == CompWF
	case 0:
		if cfg.Label == "" {
			return nil, fmt.Errorf("core: unknown system kind %d (set System to a preset or Label a composed scheme)", cfg.System)
		}
	default:
		return nil, fmt.Errorf("core: unknown system kind %d", cfg.System)
	}
	if err := cfg.Memory.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Memory.Geometry.LinesPerBank < 2 {
		return nil, fmt.Errorf("core: need >= 2 lines per bank (one is the Start-Gap spare), got %d",
			cfg.Memory.Geometry.LinesPerBank)
	}
	if cfg.Scheme == nil {
		cfg.Scheme = ecp.New(6)
	}
	if cfg.Threshold1 < 1 || cfg.Threshold1 > block.Size {
		return nil, fmt.Errorf("core: Threshold1 %d out of range [1,%d]", cfg.Threshold1, block.Size)
	}
	if cfg.Threshold2 < 1 || cfg.Threshold2 > block.Size {
		return nil, fmt.Errorf("core: Threshold2 %d out of range [1,%d]", cfg.Threshold2, block.Size)
	}
	if cfg.StartGapPsi < 1 {
		return nil, fmt.Errorf("core: StartGapPsi must be >= 1, got %d", cfg.StartGapPsi)
	}
	if cfg.MaxPlaceRetries < 1 {
		cfg.MaxPlaceRetries = 1
	}

	g := cfg.Memory.Geometry
	c := &Controller{
		cfg:    cfg,
		mem:    pcm.New(cfg.Memory),
		banks:  make([]bankState, g.Banks()),
		comp:   compress.Compressor{FVC: cfg.FVC, DisableBDI: cfg.DisableBDI, DisableFPC: cfg.DisableFPC},
		energy: pcm.DefaultEnergyModel(),
	}
	logicalRows := g.LinesPerBank - 1 // one physical row is the Start-Gap spare
	for i := range c.banks {
		sg, err := wear.NewStartGap(logicalRows, cfg.StartGapPsi)
		if err != nil {
			return nil, err
		}
		rot, err := wear.NewIntraLine(cfg.IntraCounterBits, cfg.IntraStepBytes, block.Size)
		if err != nil {
			return nil, err
		}
		c.banks[i] = bankState{
			sg:   sg,
			rot:  rot,
			meta: make([]lineMeta, g.LinesPerBank),
		}
	}
	return c, nil
}

// System returns the controller's system kind (zero for a composed,
// non-preset scheme; see Label).
func (c *Controller) System() SystemKind { return c.cfg.System }

// Label returns the human-readable name of the controller's composition:
// the configured Label for a composed scheme, else the preset's name.
func (c *Controller) Label() string {
	if c.cfg.Label != "" {
		return c.cfg.Label
	}
	return c.cfg.System.String()
}

// Scheme returns the hard-error tolerance scheme in use.
func (c *Controller) Scheme() ecc.Scheme { return c.cfg.Scheme }

// LogicalLines returns the number of writable logical lines.
func (c *Controller) LogicalLines() int {
	return len(c.banks) * (c.cfg.Memory.Geometry.LinesPerBank - 1)
}

// PhysicalLines returns the total number of physical lines.
func (c *Controller) PhysicalLines() int {
	return c.cfg.Memory.Geometry.TotalLines()
}

// Memory exposes the underlying PCM substrate (read-only use intended).
func (c *Controller) Memory() *pcm.Memory { return c.mem }

// locate splits a logical line address into its bank and per-bank logical
// row. Logical addresses interleave across banks, matching pcm.Geometry.
func (c *Controller) locate(addr int) (bank, logicalRow int) {
	if addr < 0 || addr >= c.LogicalLines() {
		panic(fmt.Sprintf("core: logical address %d out of range [0,%d)", addr, c.LogicalLines()))
	}
	return addr % len(c.banks), addr / len(c.banks)
}

// physAddr converts a (bank, physical row) pair into a global line address
// for the pcm.Memory.
func (c *Controller) physAddr(bank, row int) int {
	return c.cfg.Memory.Geometry.Encode(pcm.Location{Bank: bank, Row: row})
}

// Read returns the logical content of the line at the logical address,
// together with the modeled decompression latency in CPU cycles. Reading a
// dead line or a never-written line returns an error.
func (c *Controller) Read(addr int) (block.Block, int, error) {
	bank, lrow := c.locate(addr)
	bs := &c.banks[bank]
	row := bs.sg.Map(lrow)
	meta := &bs.meta[row]
	var out block.Block
	if meta.dead {
		return out, 0, fmt.Errorf("core: line %d is dead (uncorrectable)", addr)
	}
	if !meta.written() {
		return out, 0, fmt.Errorf("core: line %d has never been written", addr)
	}
	out, err := c.comp.Decompress(meta.enc, meta.payload)
	if err != nil {
		return out, 0, fmt.Errorf("core: corrupt line %d: %w", addr, err)
	}
	c.stats.Reads++
	if meta.enc.IsCompressed() {
		c.stats.CompressedReads++
	}
	return out, meta.enc.DecompressionCycles(), nil
}

// DeadLines returns the number of currently dead physical lines.
func (c *Controller) DeadLines() int { return c.deadCount }

// DeadFraction returns dead physical lines / total physical lines, the
// quantity the paper's 50% end-of-life criterion tests.
func (c *Controller) DeadFraction() float64 {
	return float64(c.DeadLines()) / float64(c.PhysicalLines())
}
