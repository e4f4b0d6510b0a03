// Package workload synthesizes LLC write-back streams that stand in for
// the paper's SPEC CPU2006 traces (collected with gem5; §IV). Each of the
// 15 memory-intensive applications is modeled by a Profile calibrated to
// the paper's published per-application statistics:
//
//   - WPKI and BEST compression ratio (Table III),
//   - the distribution of compressed sizes (Fig 3 averages; Fig 11 CDFs),
//   - the probability that consecutive writes to a line change compressed
//     size (Fig 6), which drives the SC heuristic and the entropy effects
//     of Fig 5,
//   - the update sparsity that shapes differential-write bit-flip counts
//     (Fig 1).
//
// The substitution argument (DESIGN.md §2): the lifetime simulator sees the
// workload only through per-line write frequency, compressed-size behavior
// over time, and DW bit flips — exactly the axes these profiles calibrate.
package workload

import (
	"fmt"
	"math"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
	"pcmcomp/internal/trace"
)

// Compressibility is the paper's H/M/L workload classification (Table III).
type Compressibility int

// Compressibility classes: CR < 0.3 is high, CR > 0.7 low, else medium.
const (
	High Compressibility = iota + 1
	Medium
	Low
)

// String returns the Table III letter for the class.
func (c Compressibility) String() string {
	switch c {
	case High:
		return "H"
	case Medium:
		return "M"
	case Low:
		return "L"
	default:
		return "?"
	}
}

// ClassWeight is one entry of a profile's compressed-size mixture.
type ClassWeight struct {
	class  contentClass
	weight float64
}

// Profile describes one synthetic application.
type Profile struct {
	// Name is the SPEC benchmark name this profile is calibrated to.
	Name string
	// WPKI is L2 write-backs per kilo-instruction (Table III), used to
	// convert simulated writes into wall-clock lifetime.
	WPKI float64
	// CR is the target BEST compression ratio (Table III).
	CR float64
	// Class is the H/M/L compressibility class.
	Class Compressibility
	// Mix is the distribution over content classes; its size-weighted mean
	// approximates CR*64 bytes.
	Mix []ClassWeight
	// SizeChangeProb approximates Fig 6: the probability that a rewrite of
	// a line resamples its content class (changing compressed size).
	SizeChangeProb float64
	// ShiftProb is the fraction of size changes realized as *minimal*
	// in-place upshifts (a few raw bits flip but the compressed layout is
	// repacked) rather than full content regeneration; this drives the
	// increased-bit-flip population of Fig 5.
	ShiftProb float64
	// UpdateSparsity is the fraction of a line's value slots rewritten by
	// an in-class update.
	UpdateSparsity float64
	// ZipfS is the skew of line-address popularity (0 = uniform).
	ZipfS float64
	// adversarial switches the generator to the worst-case stress stream
	// (see adversarial.go) instead of the calibrated mixture model.
	adversarial bool
}

// MeanCompressedSize returns the mixture's expected nominal size in bytes.
func (p *Profile) MeanCompressedSize() float64 {
	var total, acc float64
	for _, cw := range p.Mix {
		total += cw.weight
		acc += cw.weight * float64(nominalSize[cw.class])
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// Generator produces the write-back stream of one profile over a line
// address space of a given size.
type Generator struct {
	prof    Profile
	r       *rng.Rand
	zipf    *zipf
	lines   []lineState
	cumMix  []float64
	classes []contentClass
}

type lineState struct {
	class contentClass
	// personality is the class assigned at first touch; later size
	// changes stay within a small ladder neighborhood of it. This keeps
	// per-address maximum compressed sizes heterogeneous across lines
	// (Fig 11: for gcc they spread roughly uniformly over 25-64B, for
	// milc ~80% of addresses stay under 25B) instead of every line
	// ergodically visiting the whole mixture.
	personality contentClass
	data        block.Block
}

// NewGenerator builds a generator over numLines logical lines. The same
// (profile, numLines, seed) triple always yields the same stream.
func NewGenerator(prof Profile, numLines int, seed uint64) (*Generator, error) {
	if numLines < 1 {
		return nil, fmt.Errorf("workload: numLines must be >= 1, got %d", numLines)
	}
	if len(prof.Mix) == 0 {
		return nil, fmt.Errorf("workload: profile %q has an empty class mix", prof.Name)
	}
	g := &Generator{
		prof:  prof,
		r:     rng.New(seed),
		zipf:  newZipf(numLines, prof.ZipfS),
		lines: make([]lineState, numLines),
	}
	var total float64
	for _, cw := range prof.Mix {
		if cw.weight <= 0 {
			return nil, fmt.Errorf("workload: profile %q has non-positive weight", prof.Name)
		}
		total += cw.weight
	}
	acc := 0.0
	for _, cw := range prof.Mix {
		acc += cw.weight / total
		g.cumMix = append(g.cumMix, acc)
		g.classes = append(g.classes, cw.class)
	}
	return g, nil
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

func (g *Generator) sampleClass() contentClass {
	u := g.r.Float64()
	for i, c := range g.cumMix {
		if u < c {
			return g.classes[i]
		}
	}
	return g.classes[len(g.classes)-1]
}

// Next produces the next write-back event.
func (g *Generator) Next() trace.Event {
	if g.prof.adversarial {
		return g.nextAdversarial()
	}
	addr := g.zipf.sample(g.r)
	ls := &g.lines[addr]
	switch {
	case ls.class == 0:
		// First touch: assign the line's personality and content.
		ls.personality = g.sampleClass()
		ls.class = ls.personality
		ls.data = generate(g.r, ls.class)
	case g.r.Float64() < g.prof.SizeChangeProb:
		// Rewrite that changes the compressed size (Fig 6/7 behaviour):
		// either a minimal in-place upshift (cheap in raw bits, expensive
		// in compressed layout) or a regeneration at a neighboring size.
		// Upshifts apply only from at-or-below the personality, so a
		// line's lifetime-max compressed size stays within one ladder
		// step of it — Fig 11's per-address max-size CDFs are bounded
		// per line, not ergodic over the whole mixture.
		if g.r.Float64() < g.prof.ShiftProb && ls.class <= ls.personality {
			if nc, ok := shiftUp(g.r, &ls.data, ls.class); ok {
				ls.class = nc
				break
			}
		}
		ls.class = g.sampleNeighbor(ls.personality, ls.class)
		ls.data = generate(g.r, ls.class)
	default:
		// In-class update: size-stable, sparse bit flips.
		mutate(g.r, &ls.data, ls.class, g.prof.UpdateSparsity)
	}
	return trace.Event{Addr: addr, Data: ls.data}
}

// sampleNeighbor draws the line's next class from the ladder neighborhood
// of its personality (two steps down to one step up), avoiding the current
// class so the rewrite actually changes compressed size. Excursions are
// mean-reverting: a line away from its personality usually snaps back,
// keeping the stationary per-line size distribution anchored at the
// personality and its lifetime maximum at one step above it.
func (g *Generator) sampleNeighbor(personality, current contentClass) contentClass {
	if current != personality && g.r.Float64() < 0.7 {
		return personality
	}
	lo := int(personality) - 2
	hi := int(personality) + 1
	if lo < int(classZero) {
		lo = int(classZero)
	}
	if hi > int(classRand) {
		hi = int(classRand)
	}
	// Up to 4 candidates besides current; rejection-sample a few times.
	for attempt := 0; attempt < 8; attempt++ {
		c := contentClass(lo + g.r.Intn(hi-lo+1))
		if c != current {
			return c
		}
	}
	return personality
}

// GenerateTrace produces n consecutive events.
func (g *Generator) GenerateTrace(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = g.Next()
	}
	return events
}

// zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s via a precomputed inverse CDF.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) sample(r *rng.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
