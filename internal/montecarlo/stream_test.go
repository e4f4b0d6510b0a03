package montecarlo

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/ecc/aegis"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/ecc/safer"
	"pcmcomp/internal/ecc/secded"
	"pcmcomp/internal/rng"
)

// referenceCurve is the trial-at-a-time reference path: a plain rng.Rand
// (no Batch prefetch), a fresh FaultSet per trial, and the generic Survives
// scan (no count-bounds screening). The Runner's batched kernel must match
// it bit-for-bit — this is the stream-identity contract the Float64bits
// goldens and the cluster's deterministic shard merge both lean on.
func referenceCurve(scheme ecc.Scheme, windowBytes, maxErrors, trials int, seed uint64) ([]float64, error) {
	out := make([]float64, 0, maxErrors)
	for e := 1; e <= maxErrors; e++ {
		cfg := Config{Scheme: scheme, WindowBytes: windowBytes, Errors: e, Trials: trials, Seed: seed + uint64(e)}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		r := rng.New(cfg.Seed)
		failures := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			var faults ecc.FaultSet
			for count := 0; count < cfg.Errors; {
				cell := r.Intn(block.Bits)
				if !faults.Contains(cell) {
					faults.Add(cell)
					count++
				}
			}
			if !Survives(scheme, &faults, cfg.WindowBytes) {
				failures++
			}
		}
		out = append(out, float64(failures)/float64(cfg.Trials))
	}
	return out, nil
}

// curvesEqualBits fails the test unless the two curves are bit-identical.
func curvesEqualBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d] = %x, want %x (batched and sequential streams diverged)",
				name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestBatchedCurveMatchesSequential pins the Runner's kernel to the
// trial-at-a-time path. The first sweep covers the trial counts that stress
// the 64-draw prefetch boundary (1, one under, exactly one batch, one over,
// several batches plus a remainder) and window sizes including the
// single-placement full line. The second pins the shift-only cell draw and
// the two count screens, for every count-bounded scheme over a spread of
// windows:
//   - The mean-window screen returns 0 while
//     Errors·WindowBytes < block.Size·(always+1). Every curve runs past
//     that point, so the reference's full scans check both sides of it.
//     The exception is Aegis at a 1-byte window, screened at every count.
//   - The all-fail screen returns 1 once
//     Errors > 8·(block.Size−WindowBytes)+never. Windows 1 and 2 run every
//     error count, and windows 60 to 64 run past that boundary. Near it the
//     reference of a wide window reads 1 as well, so the narrow windows are
//     what pin the boundary's place: a screen that starts too early (say,
//     4 instead of 8 cells per outside byte) answers 1 there, where most
//     trials survive. SAFER-2 (always 1, never 2) pins the comparison: on
//     the full line at two faults the mean-window screen just misses and
//     every trial survives, so a screen testing ≥ never would answer 1.
func TestBatchedCurveMatchesSequential(t *testing.T) {
	check := func(name string, scheme ecc.Scheme, window, maxErrors, trials int) {
		t.Helper()
		want, err := referenceCurve(scheme, window, maxErrors, trials, 42)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Curve(scheme, window, maxErrors, trials, 42)
		if err != nil {
			t.Fatal(err)
		}
		curvesEqualBits(t, fmt.Sprintf("%s/%dB", name, window), got, want)
	}
	for _, tc := range []struct {
		name      string
		scheme    ecc.Scheme
		maxErrors int
	}{
		{"ecp", ecp.New(6), 14},
		{"safer", safer.New(5), 10},
	} {
		for _, trials := range []int{1, 63, 64, 65, 300} {
			for _, window := range []int{1, 32, 64} {
				check(tc.name, tc.scheme, window, tc.maxErrors, trials)
			}
		}
	}

	aegis17x31, err := aegis.New(17, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		scheme ecc.Scheme
	}{
		{"ecp-6", ecp.New(6)},
		{"safer-5", safer.New(5)},
		{"aegis-17x31", aegis17x31},
		{"secded", secded.Scheme{}},
		{"safer-2", safer.New(1)},
	} {
		_, never := tc.scheme.(ecc.CorrectabilityBounds).CorrectableBounds()
		for _, window := range []int{1, 2, 7, 16, 24, 33, 60, 63, 64} {
			maxErrors, trials := 48, 65
			switch {
			case window <= 2:
				// Every error count, at fewer trials: the draws that
				// fill a nearly full line dominate the cost.
				maxErrors, trials = block.Bits, 20
			case window <= 7:
				maxErrors = 128
			case window >= 60 && window < block.Size:
				// Past the all-fail boundary, at fewer trials: SAFER's full
				// scans of nearly full windows dominate the cost.
				maxErrors, trials = max(maxErrors, 8*(block.Size-window)+never+1), 20
			}
			check(tc.name, tc.scheme, window, maxErrors, trials)
		}
	}
}

// TestCurveTrialEdgeCases covers the degenerate trial counts: zero trials
// is rejected identically by both paths, and zero maxErrors yields an
// empty curve without error.
func TestCurveTrialEdgeCases(t *testing.T) {
	if _, err := Curve(ecp.New(6), 32, 5, 0, 1); err == nil {
		t.Error("trials=0 accepted by the batched path")
	}
	if _, err := referenceCurve(ecp.New(6), 32, 5, 0, 1); err == nil {
		t.Error("trials=0 accepted by the sequential path")
	}
	curve, err := Curve(ecp.New(6), 32, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 0 {
		t.Errorf("maxErrors=0 produced %d points", len(curve))
	}
}

// TestCurveDeterministicAcrossConcurrency proves the Runner contract the
// distributed sweeps rely on: like LifetimeOptions.Concurrency for the
// lifetime experiments, the worker width must never change the numbers.
// Curves computed by concurrent per-goroutine Runners are bit-identical to
// the serial ones at every width (run under -race in CI).
func TestCurveDeterministicAcrossConcurrency(t *testing.T) {
	const window, maxErrors, trials = 32, 16, 150
	scheme := ecp.New(6)
	want, err := Curve(scheme, window, maxErrors, trials, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 4, 8} {
		got := make([][]float64, width)
		var wg sync.WaitGroup
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runner := NewRunner()
				curve, err := runner.AppendCurve(context.Background(),
					make([]float64, 0, maxErrors), scheme, window, maxErrors, trials, 7, nil)
				if err == nil {
					got[w] = curve
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < width; w++ {
			if got[w] == nil {
				t.Fatalf("width %d: worker %d failed", width, w)
			}
			curvesEqualBits(t, "concurrent", got[w], want)
		}
	}
}
