// Package montecarlo implements the paper's Fig 9 fault-injection study:
// for a single 512-cell line, it measures the probability that a data
// payload of W bytes can no longer be placed anywhere in the line, as a
// function of the number of stuck cells (distributed uniformly, modeling
// perfect intra-line wear-leveling) and the hard-error scheme in use
// (ECP-6, SAFER-32, Aegis 17x31).
package montecarlo

import (
	"context"
	"fmt"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/rng"
)

// Config parameterizes one failure-probability estimate.
type Config struct {
	// Scheme is the hard-error tolerance scheme under test.
	Scheme ecc.Scheme
	// WindowBytes is the compressed-data size to place (1..64).
	WindowBytes int
	// Errors is the number of stuck cells injected, uniformly at random.
	Errors int
	// Trials is the number of Monte-Carlo injections (paper: 100,000).
	Trials int
	// Seed drives the injection randomness.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Scheme == nil {
		return fmt.Errorf("montecarlo: nil scheme")
	}
	if c.WindowBytes < 1 || c.WindowBytes > block.Size {
		return fmt.Errorf("montecarlo: window %dB out of [1,%d]", c.WindowBytes, block.Size)
	}
	if c.Errors < 0 || c.Errors > block.Bits {
		return fmt.Errorf("montecarlo: error count %d out of [0,%d]", c.Errors, block.Bits)
	}
	if c.Trials < 1 {
		return fmt.Errorf("montecarlo: trials must be >= 1, got %d", c.Trials)
	}
	return nil
}

// Survives reports whether a payload of windowBytes can be placed in a line
// with the given faults: some window origin (wrapping, modeling the sliding
// compression window) must be correctable under the scheme. A full-size
// payload has only one placement. Runner does not call it: it is the
// reference that the Runner's count-screened scan is tested against.
func Survives(scheme ecc.Scheme, faults *ecc.FaultSet, windowBytes int) bool {
	if windowBytes >= block.Size {
		return scheme.Correctable(faults, 0, block.Size)
	}
	for origin := 0; origin < block.Size; origin++ {
		if scheme.Correctable(faults, origin, windowBytes) {
			return true
		}
	}
	return false
}

// FailureProbability estimates P(line unusable) for the configuration.
func FailureProbability(cfg Config) (float64, error) {
	return NewRunner().FailureProbability(context.Background(), cfg)
}

// ctxCheckEvery is how many Monte-Carlo trials pass between context polls:
// rare enough to stay off the hot path, frequent enough that cancellation
// lands within milliseconds.
const ctxCheckEvery = 4096

// Runner owns the reusable scratch of the Monte-Carlo kernel: the
// deterministic generator and its prefetching batch, the injected fault
// set, and the per-byte fault counts the placement scan slides over.
// Allocating the scratch once and reusing it across points and curves is
// what makes the curve path allocation-free — the per-call locals of the
// old kernel escaped to the heap twice per curve point through the
// ecc.Scheme interface call. Its other shortcuts keep every output
// bit-identical to the plain path (rng.Rand.Intn draws, the generic
// Survives scan): cells come from a shift of one prefetched draw, window
// origins are screened by fault count, and points whose answer the fault
// count alone decides return 0 (no trial can fail) or 1 (every trial
// fails) without drawing.
//
// A Runner is not safe for concurrent use; give each goroutine its own.
// Results are a pure function of the arguments, never of the Runner's
// history, so any distribution of calls across Runners is bit-identical
// to a single sequential one (the cluster's shard-merge contract,
// DESIGN §8, leans on exactly this).
type Runner struct {
	r      rng.Rand
	batch  rng.Batch
	faults ecc.FaultSet
	// counts holds the per-byte fault counts twice over (byte i at i and
	// at i+block.Size), so every wrapping window is a contiguous run and
	// the placement scan indexes without a modulo.
	counts [2 * block.Size]uint8
}

// NewRunner returns a ready Runner. The zero value is also valid; New is
// for callers that want the scratch on the heap up front so later calls
// are allocation-free.
func NewRunner() *Runner { return &Runner{} }

// FailureProbability estimates P(line unusable) for the configuration,
// reusing the Runner's scratch. The generator is reseeded from cfg.Seed on
// every call and the Batch serves draws in exactly the order rng.New(Seed)
// would emit them, so estimates are bit-identical to the unbatched
// trial-at-a-time path and independent of the Runner's previous calls.
// Two count screens on the scheme's CorrectableBounds answer a point
// without a trial: a configuration whose mean window holds fewer than
// always+1 faults returns 0, and one where every window must hold more
// than never faults returns 1.
// The context is polled every ctxCheckEvery trials; on cancellation it
// returns 0 and ctx.Err().
func (ru *Runner) FailureProbability(ctx context.Context, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	always, never := cfg.Scheme.CorrectableBounds()
	if cfg.Errors*cfg.WindowBytes < block.Size*(always+1) {
		// Mean-window screen: every trial survives, so the estimate is
		// exactly 0 without running one. Each trial injects exactly
		// cfg.Errors distinct faults. Over the block.Size wrapping
		// origins each faulty byte lies in exactly WindowBytes windows,
		// so the window counts sum to Errors·WindowBytes and the
		// smallest is at most ⌊Errors·WindowBytes/block.Size⌋ ≤ always.
		// The origin scan reaches that origin unless it accepted an
		// earlier one, and accepts it on the count alone, as Survives'
		// Correctable call must by the bounds contract. (A full-line
		// window has one placement; there the condition reduces to
		// Errors ≤ always.) Skipping the draws is invisible elsewhere:
		// each curve point reseeds its own stream.
		return 0, nil
	}
	if cfg.Errors-8*(block.Size-cfg.WindowBytes) > never {
		// All-fail screen: every trial fails, so the estimate is
		// failures/Trials = Trials/Trials, exactly 1, without running
		// one. Each trial injects exactly cfg.Errors distinct faults,
		// and only 8·(block.Size−WindowBytes) cells lie outside any one
		// window, so every window holds at least
		// Errors−8·(block.Size−WindowBytes) > never faults. The origin
		// scan therefore rejects every origin on the count alone
		// (consistent bounds have always ≤ never), as Survives'
		// Correctable call must by the bounds contract. (At a full-line
		// window the condition reduces to Errors > never.) As above,
		// skipping the draws is invisible elsewhere.
		return 1, nil
	}
	ru.r.Reseed(cfg.Seed)
	ru.batch.Reset(&ru.r)
	failures := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		if trial%ctxCheckEvery == 0 && trial > 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		ru.faults.Clear()
		injectUniform(&ru.batch, &ru.faults, cfg.Errors)
		if !ru.survivesBounded(cfg.Scheme, cfg.WindowBytes, always, never) {
			failures++
		}
	}
	return float64(failures) / float64(cfg.Trials), nil
}

// survivesBounded is Survives over the Runner's fault set, screened by the
// scheme's count bounds: the fault count of every placement origin comes from one
// incrementally updated sliding-window sum over the per-byte counts, and
// the full Correctable kernel runs only for counts inside (always, never].
// The origin scan order and the accept decision per origin are identical
// to Survives', so the two paths agree bit-for-bit.
func (ru *Runner) survivesBounded(scheme ecc.Scheme, windowBytes, always, never int) bool {
	f := &ru.faults
	if windowBytes >= block.Size {
		n := f.Count()
		if n <= always {
			return true
		}
		if n > never {
			return false
		}
		return scheme.Correctable(f, 0, block.Size)
	}
	c := &ru.counts
	f.ByteCounts((*[block.Size]uint8)(c[:block.Size]))
	copy(c[block.Size:], c[:block.Size])
	cnt := 0
	for _, n := range c[:windowBytes] {
		cnt += int(n)
	}
	// leave[o] and enter[o] are the bytes that leave and enter the window
	// as it slides from origin o to o+1.
	leave := c[:block.Size]
	enter := c[windowBytes : windowBytes+block.Size]
	for origin := range leave {
		if cnt <= always {
			return true
		}
		if cnt <= never && scheme.Correctable(f, origin, windowBytes) {
			return true
		}
		cnt += int(enter[origin]) - int(leave[origin])
	}
	return false
}

// cellBitsLog2 is log2(block.Bits). injectUniform draws a cell as the top
// cellBitsLog2 bits of one generator output, which for a power-of-two bound
// is exactly what Intn(block.Bits) returns: Lemire's rejection threshold
// (-2^k) mod 2^k is 0, so the first draw x is always accepted, and the high
// word of x·2^k is x >> (64-k).
const (
	cellBitsLog2 = 9
	cellShift    = 64 - cellBitsLog2
)

// The shift-only draw needs a power-of-two line: this fails to compile
// unless block.Bits == 1<<cellBitsLog2.
var _ [block.Bits]struct{} = [1 << cellBitsLog2]struct{}{}

// injectUniform adds exactly n distinct uniformly placed faults, drawing
// the same cells as r.Intn(block.Bits) would without its divide.
func injectUniform(r *rng.Batch, faults *ecc.FaultSet, n int) {
	for count := 0; count < n; {
		cell := int(r.Uint64() >> cellShift)
		if !faults.Contains(cell) {
			faults.Add(cell)
			count++
		}
	}
}

// Curve sweeps the error count from 1 to maxErrors and returns the failure
// probability at each point (index 0 holds 1 error). Callers that need
// cancellation or progress use NewRunner().AppendCurve directly.
func Curve(scheme ecc.Scheme, windowBytes, maxErrors, trials int, seed uint64) ([]float64, error) {
	return NewRunner().AppendCurve(context.Background(), make([]float64, 0, maxErrors), scheme, windowBytes, maxErrors, trials, seed, nil)
}

// AppendCurve appends the failure-probability curve (1..maxErrors injected
// errors, point e estimated from seed+e) to dst and returns the extended
// slice, reusing the Runner's scratch: with a Runner kept across calls and
// a dst with capacity maxErrors, a curve costs zero heap allocations. The
// points are bit-identical to Curve's. onPoint, when non-nil, fires
// (done, total=maxErrors) after each point on the computing goroutine, so
// keep it cheap (an atomic store). On cancellation it returns the points
// appended so far (a prefix of the curve, possibly empty) together with
// ctx.Err(), after firing a final onPoint(total, total) tick so progress
// meters driven by the callback always close out.
func (ru *Runner) AppendCurve(ctx context.Context, dst []float64, scheme ecc.Scheme, windowBytes, maxErrors, trials int, seed uint64, onPoint func(done, total int)) ([]float64, error) {
	for e := 1; e <= maxErrors; e++ {
		p, err := ru.FailureProbability(ctx, Config{
			Scheme: scheme, WindowBytes: windowBytes,
			Errors: e, Trials: trials, Seed: seed + uint64(e),
		})
		if err != nil {
			if ctx.Err() != nil {
				if onPoint != nil {
					onPoint(maxErrors, maxErrors)
				}
				return dst, err
			}
			return nil, err
		}
		dst = append(dst, p)
		if onPoint != nil {
			onPoint(e, maxErrors)
		}
	}
	return dst, nil
}

// TolerableAt returns the largest error count whose failure probability
// stays at or below the threshold (e.g. 0.5 for the paper's comparison:
// "at 0.5 failure probability a 32B window tolerates 18/38/41 faults under
// ECP-6/SAFER/Aegis").
func TolerableAt(curve []float64, threshold float64) int {
	last := 0
	for i, p := range curve {
		if p <= threshold {
			last = i + 1
		}
	}
	return last
}
