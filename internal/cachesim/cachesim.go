// Package cachesim models the on-chip memory hierarchy of the paper's
// evaluated CMP (Table II): 16 cores with private write-back L1 data caches
// (32KB, 2-way) above a shared L2 (4MB, 8-way), with invalidation-based
// coherence between the L1s. It filters a CPU-level access stream down to
// the stream of L2 (LLC) write-backs, the job gem5's Ruby model performed
// in the paper, but no figure replays its output: the calibrated
// internal/workload generators are the trace substitution (DESIGN §2),
// because at this repository's scales a working set that fits the L2 is
// written back once per line, at the flush, with no per-line write skew.
// The package is kept as a throughput stressor for pcmbench.
//
// The model is a functional (data-carrying) cache simulator: lines carry
// their 64-byte contents so that evictions emit real write-back data, and
// LRU replacement determines which dirty lines reach memory.
package cachesim

import (
	"fmt"

	"pcmcomp/internal/block"
	"pcmcomp/internal/trace"
)

// Config sizes the hierarchy. All sizes are in bytes; LineSize is fixed at
// 64 to match the memory system.
type Config struct {
	Cores  int
	L1Size int
	L1Ways int
	L2Size int
	L2Ways int
}

// DefaultConfig mirrors Table II: 16 cores, 32KB/2-way private L1D,
// 4MB/8-way shared L2.
func DefaultConfig() Config {
	return Config{Cores: 16, L1Size: 32 << 10, L1Ways: 2, L2Size: 4 << 20, L2Ways: 8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("cachesim: need >= 1 core, got %d", c.Cores)
	}
	for _, p := range []struct {
		name       string
		size, ways int
	}{{"L1", c.L1Size, c.L1Ways}, {"L2", c.L2Size, c.L2Ways}} {
		if p.size < block.Size || p.ways < 1 {
			return fmt.Errorf("cachesim: invalid %s geometry (size %d, ways %d)", p.name, p.size, p.ways)
		}
		lines := p.size / block.Size
		if lines%p.ways != 0 {
			return fmt.Errorf("cachesim: %s lines (%d) not divisible by ways (%d)", p.name, lines, p.ways)
		}
		sets := lines / p.ways
		if sets&(sets-1) != 0 {
			return fmt.Errorf("cachesim: %s set count %d is not a power of two", p.name, sets)
		}
	}
	return nil
}

// Access is one CPU memory operation at line granularity.
type Access struct {
	// Core is the issuing core id.
	Core int
	// Addr is the line address.
	Addr int
	// Write marks a store; Data is the full new line content for stores.
	Write bool
	Data  block.Block
}

// Stats counts hierarchy events.
type Stats struct {
	Accesses      uint64
	L1Hits        uint64
	L1Misses      uint64
	L2Hits        uint64
	L2Misses      uint64
	Invalidations uint64
	L2Writebacks  uint64 // dirty L2 evictions -> main memory
}

// line is one cache line's state.
type line struct {
	valid bool
	dirty bool
	addr  int
	lru   uint64
	data  block.Block
}

// cache is a set-associative, LRU, write-back cache.
type cache struct {
	sets  int
	ways  int
	lines []line // sets*ways, row-major by set
	tick  uint64
}

func newCache(sizeBytes, ways int) *cache {
	linesTotal := sizeBytes / block.Size
	return &cache{
		sets:  linesTotal / ways,
		ways:  ways,
		lines: make([]line, linesTotal),
	}
}

func (c *cache) set(addr int) []line {
	s := addr & (c.sets - 1)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// lookup returns the way holding addr, or nil.
func (c *cache) lookup(addr int) *line {
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].addr == addr {
			c.tick++
			set[i].lru = c.tick
			return &set[i]
		}
	}
	return nil
}

// victim returns the way to fill for addr (invalid first, else LRU).
func (c *cache) victim(addr int) *line {
	set := c.set(addr)
	v := &set[0]
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].lru < v.lru {
			v = &set[i]
		}
	}
	return v
}

// invalidate drops addr if present, returning its state beforehand.
func (c *cache) invalidate(addr int) (line, bool) {
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].addr == addr {
			old := set[i]
			set[i] = line{}
			return old, true
		}
	}
	return line{}, false
}

// Hierarchy is the full multicore cache system.
type Hierarchy struct {
	cfg Config
	l1  []*cache
	l2  *cache
	// mem backs lines evicted from L2 so that refills carry real data.
	mem   map[int]block.Block
	wb    []trace.Event
	stats Stats
}

// New builds a hierarchy. It returns an error for invalid configuration.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg: cfg,
		l1:  make([]*cache, cfg.Cores),
		l2:  newCache(cfg.L2Size, cfg.L2Ways),
		mem: make(map[int]block.Block),
	}
	for i := range h.l1 {
		h.l1[i] = newCache(cfg.L1Size, cfg.L1Ways)
	}
	return h, nil
}

// Access performs one CPU memory operation, updating the hierarchy and
// capturing any main-memory write-back it causes.
func (h *Hierarchy) Access(a Access) error {
	if a.Core < 0 || a.Core >= h.cfg.Cores {
		return fmt.Errorf("cachesim: core %d out of range [0,%d)", a.Core, h.cfg.Cores)
	}
	if a.Addr < 0 {
		return fmt.Errorf("cachesim: negative address %d", a.Addr)
	}
	h.stats.Accesses++
	l1 := h.l1[a.Core]

	if ln := l1.lookup(a.Addr); ln != nil {
		h.stats.L1Hits++
		if a.Write {
			h.coherenceOnWrite(a.Core, a.Addr)
			ln.data = a.Data
			ln.dirty = true
		}
		return nil
	}
	h.stats.L1Misses++

	// Fetch the line (from L2, or memory below it) into this L1.
	data := h.fetchIntoL2(a.Addr)
	if a.Write {
		h.coherenceOnWrite(a.Core, a.Addr)
		data = a.Data
	} else {
		// A read may still hit a dirty copy in a peer L1; adopt its data.
		if peer, ok := h.peekPeerDirty(a.Core, a.Addr); ok {
			data = peer
		}
	}
	h.fillL1(a.Core, a.Addr, data, a.Write)
	return nil
}

// coherenceOnWrite invalidates all other cores' copies, folding any dirty
// peer data into L2 first (MESI-style ownership transfer, simplified).
func (h *Hierarchy) coherenceOnWrite(core, addr int) {
	for i, l1 := range h.l1 {
		if i == core {
			continue
		}
		if old, ok := l1.invalidate(addr); ok {
			h.stats.Invalidations++
			if old.dirty {
				h.storeIntoL2(addr, old.data)
			}
		}
	}
}

// peekPeerDirty returns a dirty peer copy's data without invalidating it
// (shared read).
func (h *Hierarchy) peekPeerDirty(core, addr int) (block.Block, bool) {
	for i, l1 := range h.l1 {
		if i == core {
			continue
		}
		set := l1.set(addr)
		for j := range set {
			if set[j].valid && set[j].addr == addr && set[j].dirty {
				return set[j].data, true
			}
		}
	}
	return block.Block{}, false
}

// fillL1 installs a line into a core's L1, evicting as needed.
func (h *Hierarchy) fillL1(core, addr int, data block.Block, dirty bool) {
	l1 := h.l1[core]
	v := l1.victim(addr)
	if v.valid && v.dirty {
		h.storeIntoL2(v.addr, v.data)
	}
	l1.tick++
	*v = line{valid: true, dirty: dirty, addr: addr, lru: l1.tick, data: data}
}

// fetchIntoL2 ensures addr is resident in L2 and returns its data.
func (h *Hierarchy) fetchIntoL2(addr int) block.Block {
	if ln := h.l2.lookup(addr); ln != nil {
		h.stats.L2Hits++
		return ln.data
	}
	h.stats.L2Misses++
	data := h.mem[addr] // zero block for untouched memory
	h.installL2(addr, data, false)
	return data
}

// storeIntoL2 folds a dirty line into L2 (allocating it if necessary).
func (h *Hierarchy) storeIntoL2(addr int, data block.Block) {
	if ln := h.l2.lookup(addr); ln != nil {
		ln.data = data
		ln.dirty = true
		return
	}
	h.installL2(addr, data, true)
}

func (h *Hierarchy) installL2(addr int, data block.Block, dirty bool) {
	v := h.l2.victim(addr)
	if v.valid {
		// Back-invalidate L1 copies of the evicted line (inclusive L2).
		evicted := v.data
		evictedDirty := v.dirty
		for _, l1 := range h.l1 {
			if old, ok := l1.invalidate(v.addr); ok {
				h.stats.Invalidations++
				if old.dirty {
					evicted = old.data
					evictedDirty = true
				}
			}
		}
		if evictedDirty {
			h.emitWriteback(v.addr, evicted)
		}
		h.mem[v.addr] = evicted
	}
	h.l2.tick++
	*v = line{valid: true, dirty: dirty, addr: addr, lru: h.l2.tick, data: data}
}

func (h *Hierarchy) emitWriteback(addr int, data block.Block) {
	h.stats.L2Writebacks++
	h.wb = append(h.wb, trace.Event{Addr: addr, Data: data})
}

// Flush writes back every dirty line (L1s first, then L2), emitting the
// corresponding main-memory write-backs; used to finalize a trace.
func (h *Hierarchy) Flush() {
	for _, l1 := range h.l1 {
		for i := range l1.lines {
			ln := &l1.lines[i]
			if ln.valid && ln.dirty {
				h.storeIntoL2(ln.addr, ln.data)
			}
			*ln = line{}
		}
	}
	for i := range h.l2.lines {
		ln := &h.l2.lines[i]
		if ln.valid && ln.dirty {
			h.emitWriteback(ln.addr, ln.data)
			h.mem[ln.addr] = ln.data
		}
		*ln = line{}
	}
}

// Writebacks returns the captured main-memory write-back trace.
func (h *Hierarchy) Writebacks() []trace.Event { return h.wb }

// Stats returns the hierarchy's counters.
func (h *Hierarchy) Stats() Stats { return h.stats }
