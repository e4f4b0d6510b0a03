package montecarlo

import (
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/ecc/aegis"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/ecc/safer"
	"pcmcomp/internal/rng"
)

func TestValidate(t *testing.T) {
	good := Config{Scheme: ecp.New(6), WindowBytes: 32, Errors: 10, Trials: 10, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Scheme: nil, WindowBytes: 32, Errors: 10, Trials: 10},
		{Scheme: ecp.New(6), WindowBytes: 0, Errors: 10, Trials: 10},
		{Scheme: ecp.New(6), WindowBytes: 65, Errors: 10, Trials: 10},
		{Scheme: ecp.New(6), WindowBytes: 32, Errors: -1, Trials: 10},
		{Scheme: ecp.New(6), WindowBytes: 32, Errors: 600, Trials: 10},
		{Scheme: ecp.New(6), WindowBytes: 32, Errors: 10, Trials: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSixErrorsNeverFailECP(t *testing.T) {
	// ECP-6 corrects any 6 faults regardless of window.
	for _, w := range []int{1, 16, 32, 64} {
		p, err := FailureProbability(Config{
			Scheme: ecp.New(6), WindowBytes: w, Errors: 6, Trials: 2000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p != 0 {
			t.Errorf("window %dB: failure probability %v with 6 errors", w, p)
		}
	}
}

func TestFullWindowSevenErrorsAlwaysFailECP(t *testing.T) {
	p, err := FailureProbability(Config{
		Scheme: ecp.New(6), WindowBytes: 64, Errors: 7, Trials: 500, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("64B window with 7 errors: failure probability %v, want 1", p)
	}
}

func TestSmallerWindowsTolerateMoreErrors(t *testing.T) {
	// Fig 9's central shape: failure probability at a fixed error count
	// decreases monotonically with window size.
	const errors, trials = 24, 800
	var prev float64 = -1
	for _, w := range []int{64, 40, 32, 16, 8, 1} {
		p, err := FailureProbability(Config{
			Scheme: ecp.New(6), WindowBytes: w, Errors: errors, Trials: trials, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && p > prev+0.05 {
			t.Errorf("window %dB failure %v worse than larger window's %v", w, p, prev)
		}
		prev = p
	}
}

func TestCurveMonotoneInErrors(t *testing.T) {
	curve, err := Curve(ecp.New(6), 32, 40, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 40 {
		t.Fatalf("curve length %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-0.08 {
			t.Errorf("failure probability dropped from %v to %v at %d errors",
				curve[i-1], curve[i], i+1)
		}
	}
}

func TestSchemeOrderingAtHalfProbability(t *testing.T) {
	// Paper (Fig 9, 32B window, p=0.5): ECP-6 ~18, SAFER-32 ~38, Aegis ~41
	// tolerable faults. Check the ordering and rough magnitudes.
	const w, trials = 32, 300
	schemes := []ecc.Scheme{ecp.New(6), safer.New(5), aegis.MustNew(17, 31)}
	tol := make([]int, len(schemes))
	for i, s := range schemes {
		curve, err := Curve(s, w, 60, trials, 11)
		if err != nil {
			t.Fatal(err)
		}
		tol[i] = TolerableAt(curve, 0.5)
	}
	ecpTol, saferTol, aegisTol := tol[0], tol[1], tol[2]
	if !(ecpTol < saferTol && saferTol <= aegisTol+3) {
		t.Errorf("tolerance ordering broken: ECP %d, SAFER %d, Aegis %d", ecpTol, saferTol, aegisTol)
	}
	if ecpTol < 12 || ecpTol > 26 {
		t.Errorf("ECP-6 @32B tolerates %d faults at p=0.5; paper ~18", ecpTol)
	}
	if saferTol < 28 || saferTol > 50 {
		t.Errorf("SAFER-32 @32B tolerates %d faults at p=0.5; paper ~38", saferTol)
	}
	if aegisTol < 30 || aegisTol > 55 {
		t.Errorf("Aegis @32B tolerates %d faults at p=0.5; paper ~41", aegisTol)
	}
}

// TestLinearOriginsExplainECPGap pins the measurement behind Fig 9
// residual gap 4 (EXPERIMENTS.md): at 32 B, seed 1 and 1000 trials per
// point, ECP-6 tolerates 20 faults at p = 0.5 with the kernel's wrapping
// window origins, and the paper's 18 when the same fault draws may only
// use the linear origins 0..64-W.
func TestLinearOriginsExplainECPGap(t *testing.T) {
	const w, maxErrors, trials, seed = 32, 30, 1000, 1
	scheme := ecp.New(6)
	wrapping, err := Curve(scheme, w, maxErrors, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	linear := make([]float64, 0, maxErrors)
	var r rng.Rand
	var draws rng.Batch
	var faults ecc.FaultSet
	for e := 1; e <= maxErrors; e++ {
		r.Reseed(seed + uint64(e)) // Curve's per-point seed
		draws.Reset(&r)
		failures := 0
		for trial := 0; trial < trials; trial++ {
			faults.Clear()
			injectUniform(&draws, &faults, e)
			survived := false
			for origin := 0; origin <= block.Size-w && !survived; origin++ {
				survived = scheme.Correctable(&faults, origin, w)
			}
			if !survived {
				failures++
			}
		}
		linear = append(linear, float64(failures)/trials)
	}
	if got := TolerableAt(linear, 0.5); got != 18 {
		t.Errorf("ECP-6 @32B, linear origins: tolerates %d faults at p=0.5, want 18 (the paper's)", got)
	}
	if got := TolerableAt(wrapping, 0.5); got != 20 {
		t.Errorf("ECP-6 @32B, wrapping origins: tolerates %d faults at p=0.5, want 20", got)
	}
}

func TestSurvivesUsesWrappedWindows(t *testing.T) {
	// All faults in the middle of the line: a 32B window must wrap around
	// the line end to avoid them.
	var faults ecc.FaultSet
	for i := 0; i < 40; i++ {
		faults.Add(200 + i)
	}
	if !Survives(ecp.New(6), &faults, 32) {
		t.Fatal("window should fit via the clean head+tail region")
	}
	// Faults everywhere except too few clean cells: must fail.
	faults.Clear()
	for i := 0; i < 512; i += 2 {
		faults.Add(i) // 256 faults, alternating
	}
	if Survives(ecp.New(6), &faults, 32) {
		t.Fatal("alternating faults leave no correctable 32B window")
	}
}

func TestZeroErrorsNeverFail(t *testing.T) {
	p, err := FailureProbability(Config{
		Scheme: ecp.New(6), WindowBytes: 64, Errors: 0, Trials: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("failure probability %v with zero errors", p)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Scheme: ecp.New(6), WindowBytes: 24, Errors: 15, Trials: 500, Seed: 9}
	a, err := FailureProbability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FailureProbability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestTolerableAt(t *testing.T) {
	curve := []float64{0, 0, 0.2, 0.4, 0.6, 0.9, 1}
	if got := TolerableAt(curve, 0.5); got != 4 {
		t.Fatalf("TolerableAt = %d, want 4", got)
	}
	if got := TolerableAt(nil, 0.5); got != 0 {
		t.Fatalf("TolerableAt(nil) = %d", got)
	}
}

func BenchmarkFailureProbabilityECP(b *testing.B) {
	cfg := Config{Scheme: ecp.New(6), WindowBytes: 32, Errors: 20, Trials: 100, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := FailureProbability(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFailureProbabilitySAFER(b *testing.B) {
	cfg := Config{Scheme: safer.New(5), WindowBytes: 32, Errors: 20, Trials: 20, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := FailureProbability(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
