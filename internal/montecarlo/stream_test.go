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
// the mean-window screen: for every count-bounded scheme and a spread of
// windows, the curve runs past the last point the screen returns 0 for
// (Errors·WindowBytes < block.Size·(always+1)) without drawing, so the
// reference's full scans check both sides of that boundary. Only ECP-6 and
// Aegis at a 1-byte window are screened beyond 128 errors (ECP-6 up to 447,
// Aegis at every count), so there the reference checks screened points
// alone.
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
	} {
		for _, window := range []int{1, 7, 16, 24, 33, 64} {
			maxErrors := 48
			if window <= 7 {
				maxErrors = 128
			}
			check(tc.name, tc.scheme, window, maxErrors, 65)
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
