package pcm

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"pcmcomp/internal/block"
)

// substrateMaxBytes bounds the initial line states the process keeps
// across Memories (see substrateCache): the quick-scale substrates of
// about two dozen seeds, or one large-scale substrate. A Config whose
// estimated states exceed it is not kept, and its Memories sample every
// line on first touch.
const substrateMaxBytes = 2 << 20

// substrate is one Config's initial line states: the wear planes of every
// line of a fresh memory, as budgets samples them. It is built once and
// read-only afterwards, so Memories on the same Config copy their lines
// out of it instead of each drawing 512 normals per line.
type substrate struct {
	once sync.Once
	// wear holds every line's planes back to back: line a's 8·k words are
	// wear[off[a]:off[a+1]].
	wear []uint64
	off  []uint32
	// charge is what the cache counts against its bound: an estimate
	// until the build settles it to the exact size.
	charge int64
	used   uint64 // the cache clock at the last get, for LRU eviction
}

// build samples every line of cfg.
func (s *substrate) build(cfg Config) {
	n := cfg.Geometry.TotalLines()
	s.off = make([]uint32, n+1)
	wear := make([]uint64, 0, estimateBytes(cfg)/8)
	for a := 0; a < n; a++ {
		b := cfg.budgets(a)
		k := planeCount(&b)
		start := len(wear)
		wear = slices.Grow(wear, block.Bits/64*k)[:start+block.Bits/64*k]
		putPlanes(wear[start:], &b, k)
		s.off[a+1] = uint32(len(wear))
	}
	s.wear = slices.Clone(wear) // exact size: the estimate rounds up
}

// line returns a copy of line a's initial state.
func (s *substrate) line(a int) *Line {
	w := s.wear[s.off[a]:s.off[a+1]]
	return &Line{k: len(w) / (block.Bits / 64), wear: slices.Clone(w)}
}

// size is the substrate's exact size in bytes.
func (s *substrate) size() int64 { return int64(8*len(s.wear) + 4*len(s.off)) }

// estimateBytes is a substrate's size before it is built: every line at
// the plane count of an 8σ draw, which no cell of a realistic memory
// exceeds. settle replaces it with the exact size.
func estimateBytes(cfg Config) int64 {
	top := min(cfg.Endurance.Mean*(1+8*cfg.Endurance.CoV), math.MaxUint32)
	k := int64(bits.Len64(uint64(max(top, 1)) - 1))
	lines := int64(cfg.Geometry.TotalLines())
	return lines*(8*block.Bits/64*k+4) + 4
}

// substrateCache is the process-wide, byte-bounded table of substrates,
// one per Config, evicted least recently used first. An evicted substrate
// stays valid for the Memories that already hold it.
type substrateCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64 // the charges of every kept substrate
	clock uint64
	m     map[Config]*substrate
}

var substrates = substrateCache{max: substrateMaxBytes}

// get returns cfg's substrate, building it on first use; concurrent
// callers for one Config wait for the one build. It returns nil when the
// substrate would not fit the bound.
func (c *substrateCache) get(cfg Config) *substrate {
	est := estimateBytes(cfg)
	if est > c.max {
		return nil
	}
	c.mu.Lock()
	s, ok := c.m[cfg]
	if !ok {
		if c.m == nil {
			c.m = make(map[Config]*substrate)
		}
		s = &substrate{charge: est}
		c.m[cfg] = s
		c.bytes += est
		c.fitLocked(s)
	}
	c.clock++
	s.used = c.clock
	c.mu.Unlock()
	s.once.Do(func() {
		s.build(cfg)
		c.settle(cfg, s)
	})
	return s
}

// settle charges a built substrate's exact size, dropping it when that
// alone exceeds the bound.
func (c *substrateCache) settle(cfg Config, s *substrate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[cfg] != s {
		return // evicted while it was built
	}
	exact := s.size()
	c.bytes += exact - s.charge
	s.charge = exact
	if exact > c.max {
		delete(c.m, cfg)
		c.bytes -= exact
		return
	}
	c.fitLocked(s)
}

// fitLocked evicts the least recently used substrates other than keep
// until the charges fit the bound. Callers hold c.mu.
func (c *substrateCache) fitLocked(keep *substrate) {
	for c.bytes > c.max {
		var victim Config
		var vs *substrate
		for cfg, s := range c.m {
			if s != keep && (vs == nil || s.used < vs.used) {
				victim, vs = cfg, s
			}
		}
		if vs == nil {
			return
		}
		delete(c.m, victim)
		c.bytes -= vs.charge
	}
}
