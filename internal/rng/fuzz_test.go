package rng

import "testing"

// Native fuzzing for the Batch prefetch path: a Batch must serve exactly
// the stream its underlying Rand would emit, draw for draw, no matter how
// many values are consumed (any remainder against the 64-draw prefetch
// block), how the Uint64/Intn call mix interleaves, or what Intn bounds
// (and hence Lemire rejection retries) the consumer asks for. The
// Monte-Carlo goldens pin this property for one fixed workload; the fuzzer
// pins it for arbitrary ones.

func FuzzBatchMatchesSequential(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(99), make([]byte, 200))       // > 3 prefetch blocks of Uint64s
	f.Add(uint64(7), []byte{255, 1, 254, 128}) // mixed ops, odd bounds
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		seq := New(seed)
		batched := New(seed)
		var b Batch
		b.Reset(batched)
		for i, op := range ops {
			if op%2 == 0 {
				want, got := seq.Uint64(), b.Uint64()
				if want != got {
					t.Fatalf("op %d: Uint64 = %#x, sequential %#x", i, got, want)
				}
				continue
			}
			// Odd op bytes draw a bounded int; the bound sweeps 1..512 so
			// both the power-of-two (rejection-free) and the skewed Lemire
			// threshold paths are exercised.
			n := 1 + int(op)*2
			want, got := seq.Intn(n), b.Intn(n)
			if want != got {
				t.Fatalf("op %d: Intn(%d) = %d, sequential %d", i, n, got, want)
			}
		}
		// One more block of draws always crosses a refill, wherever the
		// ops left the prefetch position: Uint64's inlined buffered path
		// and its out-of-line refill must both serve the sequential stream.
		for i := 0; i <= batchSize; i++ {
			if want, got := seq.Uint64(), b.Uint64(); want != got {
				t.Fatalf("post-run draw %d = %#x, sequential %#x", i, got, want)
			}
		}
	})
}
