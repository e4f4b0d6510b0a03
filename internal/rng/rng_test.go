package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("generators with different seeds collided %d/100 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 64, 512, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(21)
	child := a.Split()
	// The child stream must be deterministic given the parent seed.
	b := New(21)
	childB := b.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() != childB.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnPropertyInRange(t *testing.T) {
	r := New(77)
	f := func(n uint16) bool {
		bound := int(n%4096) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func TestReseedMatchesNew(t *testing.T) {
	fresh := New(42)
	r := *New(99)
	r.NormFloat64() // dirty the Box-Muller spare and the state
	r.Reseed(42)
	for i := 0; i < 100; i++ {
		if got, want := r.Uint64(), fresh.Uint64(); got != want {
			t.Fatalf("draw %d: Reseed stream %#x, New stream %#x", i, got, want)
		}
	}
	r.Reseed(42)
	fresh2 := New(42)
	if got, want := r.NormFloat64(), fresh2.NormFloat64(); got != want {
		t.Fatalf("NormFloat64 after Reseed = %v, want %v", got, want)
	}
}

func TestFillMatchesUint64Stream(t *testing.T) {
	a, b := New(7), New(7)
	var buf [193]uint64 // deliberately not a multiple of the batch size
	a.Fill(buf[:])
	for i, v := range buf {
		if want := b.Uint64(); v != want {
			t.Fatalf("Fill[%d] = %#x, want %#x", i, v, want)
		}
	}
	// State must match after the bulk fill, too.
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatalf("post-Fill draw = %#x, want %#x", got, want)
	}
}

func TestBatchMatchesDirectStream(t *testing.T) {
	direct := New(11)
	var backing Rand
	backing.Reseed(11)
	var batch Batch
	batch.Reset(&backing)
	for i := 0; i < 500; i++ {
		if got, want := batch.Uint64(), direct.Uint64(); got != want {
			t.Fatalf("draw %d: batch %#x, direct %#x", i, got, want)
		}
	}
	// Intn must consume the identical draws (Lemire rejection included).
	direct2 := New(13)
	var backing2 Rand
	backing2.Reseed(13)
	var batch2 Batch
	batch2.Reset(&backing2)
	for i := 0; i < 500; i++ {
		n := 1 + i%700 // mix of power-of-two and awkward bounds
		if got, want := batch2.Intn(n), direct2.Intn(n); got != want {
			t.Fatalf("Intn draw %d (n=%d): batch %d, direct %d", i, n, got, want)
		}
	}
}

// TestIntnPowerOfTwoIsShift pins the identity the Monte-Carlo cell draw
// relies on: for a bound of 2^k, Lemire's rejection threshold is 0 and the
// high word of x·2^k is x >> (64-k), so Intn(1<<k) consumes one draw and
// returns its top k bits.
func TestIntnPowerOfTwoIsShift(t *testing.T) {
	for k := 0; k <= 20; k++ {
		a, b := New(uint64(100+k)), New(uint64(100+k))
		for i := 0; i < 1000; i++ {
			if got, want := a.Intn(1<<k), int(b.Uint64()>>(64-k)); got != want {
				t.Fatalf("k=%d draw %d: Intn(1<<k) = %d, Uint64()>>(64-k) = %d", k, i, got, want)
			}
		}
	}
}

func BenchmarkFill(b *testing.B) {
	r := New(1)
	var buf [64]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Fill(buf[:])
	}
}
