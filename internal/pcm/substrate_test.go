package pcm

import (
	"math"
	"math/bits"
	"sync"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
)

// oracleBudgets is the per-line endurance sampling as it stood before
// substrates were shared, written out independently of Config.budgets:
// each line's 512 budgets are Normal(Mean, (CoV·Mean)²) draws, clamped to
// [1, MaxUint32], from a generator seeded by (Seed, address).
func oracleBudgets(cfg Config, addr int) [block.Bits]uint32 {
	r := rng.New(cfg.Seed ^ uint64(addr)*0x9e3779b97f4a7c15 + 0x1234_5678)
	var b [block.Bits]uint32
	for i := range b {
		v := cfg.Endurance.Mean * (1 + cfg.Endurance.CoV*r.NormFloat64())
		b[i] = uint32(math.Min(math.Max(v, 1), math.MaxUint32))
	}
	return b
}

// checkOracle asserts that every line of m holds the oracle's budgets
// and the plane count they imply.
func checkOracle(t testing.TB, m *Memory, cfg Config) {
	t.Helper()
	for addr := 0; addr < m.NumLines(); addr++ {
		want := oracleBudgets(cfg, addr)
		l := m.Line(addr)
		var all uint32
		for i, v := range want {
			all |= v - 1
			if got := l.Remaining(i); got != v {
				t.Fatalf("seed %d mean %v: line %d cell %d remaining %d, want %d",
					cfg.Seed, cfg.Endurance.Mean, addr, i, got, v)
			}
		}
		if l.k != bits.Len32(all) || len(l.wear) != block.Bits/64*l.k {
			t.Fatalf("seed %d mean %v: line %d has k=%d (%d words), want k=%d",
				cfg.Seed, cfg.Endurance.Mean, addr, l.k, len(l.wear), bits.Len32(all))
		}
	}
}

// TestSubstrateMatchesSampling pins shared substrates to the per-line
// sampling they replace: a Memory whose Config's substrate is already
// built (warm) must start with exactly the budgets and plane counts the
// oracle draws, at the quick, default and large presets' endurances.
func TestSubstrateMatchesSampling(t *testing.T) {
	for _, mean := range []float64{300, 1500, 5000} { // quick, default, large
		for _, seed := range []uint64{1, 2, 7, 1 << 40} {
			cfg := smallConfig(mean)
			cfg.Seed = seed
			first := New(cfg)
			first.Line(0) // builds the substrate
			if first.sub == nil {
				t.Fatalf("mean %v: no substrate for a %d-line memory", mean, first.NumLines())
			}
			warm := New(cfg)
			checkOracle(t, warm, cfg)
			if warm.sub != first.sub {
				t.Fatal("a second Memory on one Config built its own substrate")
			}
			// Lines are copies: wearing one leaves the substrate intact.
			var d block.Block
			d.SetWord(0, ^uint64(0))
			warm.Line(3).WriteWindow(&d, 0, block.Size, &WriteResult{})
			checkOracle(t, New(cfg), cfg)
		}
	}
}

// TestSubstrateConcurrentMaterialize has many Memories on one fresh
// Config materialize every line at once, so the substrate's one build
// races its readers (run under -race).
func TestSubstrateConcurrentMaterialize(t *testing.T) {
	cfg := smallConfig(700)
	cfg.Seed = 0xc0ffee
	var wg sync.WaitGroup
	mems := make([]*Memory, 8)
	for i := range mems {
		mems[i] = New(cfg)
		wg.Add(1)
		go func(m *Memory, reverse bool) {
			defer wg.Done()
			for a := 0; a < m.NumLines(); a++ {
				if reverse {
					m.Line(m.NumLines() - 1 - a)
				} else {
					m.Line(a)
				}
			}
		}(mems[i], i%2 == 1)
	}
	wg.Wait()
	for _, m := range mems {
		if m.sub != mems[0].sub {
			t.Fatal("concurrent Memories on one Config built separate substrates")
		}
		checkOracle(t, m, cfg)
	}
}

// TestSubstrateCacheBound checks the cache's byte bound: substrates are
// kept until the bound forces the least recently used out, a Config that
// cannot fit is never kept, and an evicted substrate stays usable.
func TestSubstrateCacheBound(t *testing.T) {
	cfg := smallConfig(300)
	est := estimateBytes(cfg)
	c := substrateCache{max: 3 * est}
	var held []*substrate
	for seed := uint64(1); seed <= 3; seed++ {
		cfg.Seed = seed
		held = append(held, c.get(cfg))
	}
	if len(c.m) != 3 || c.bytes > c.max {
		t.Fatalf("3 substrates under a 3-substrate bound: kept %d, %d of %d bytes", len(c.m), c.bytes, c.max)
	}
	cfg.Seed = 1
	c.get(cfg) // seed 2 is now the least recently used
	cfg.Seed = 4
	c.get(cfg)
	// Exact sizes are below the estimates, so a fourth may fit; keep
	// adding until something is evicted.
	for seed := uint64(5); len(c.m) == int(seed-1); seed++ {
		cfg.Seed = seed
		c.get(cfg)
		if c.bytes > c.max {
			t.Fatalf("charges %d exceed the bound %d", c.bytes, c.max)
		}
	}
	cfg.Seed = 2
	if _, ok := c.m[cfg]; ok {
		t.Fatal("the least recently used substrate was not the one evicted")
	}
	cfg.Seed = 1
	if _, ok := c.m[cfg]; !ok {
		t.Fatal("a recently used substrate was evicted")
	}
	var sum int64
	for _, s := range c.m {
		sum += s.charge
		if s.charge != s.size() {
			t.Fatalf("a built substrate is charged %d, its size is %d", s.charge, s.size())
		}
	}
	if sum != c.bytes || sum > c.max {
		t.Fatalf("charges sum to %d, cache counts %d, bound %d", sum, c.bytes, c.max)
	}
	// The evicted seed-2 substrate still serves its holder.
	cfg.Seed = 2
	if l := held[1].line(5); l.Remaining(0) != oracleBudgets(cfg, 5)[0] {
		t.Fatal("an evicted substrate changed under its holder")
	}

	small := substrateCache{max: est - 1}
	if small.get(cfg) != nil || len(small.m) != 0 || small.bytes != 0 {
		t.Fatal("a substrate larger than the bound was kept")
	}
}
