// Package rng provides small, fast, deterministic pseudo-random number
// generators for reproducible simulation experiments.
//
// The experiments in this repository (lifetime simulation, Monte-Carlo fault
// injection, synthetic workload generation) must be exactly reproducible
// from a seed, independent of Go version and of math/rand's global state.
// To guarantee that, this package implements SplitMix64 (for seeding and
// cheap stateless streams) and Xoshiro256** (as the main generator), both
// with fixed, documented algorithms.
package rng

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is the recommended seeder for Xoshiro generators.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic pseudo-random number generator based on
// Xoshiro256**. The zero value is NOT valid; construct with New.
type Rand struct {
	s [4]uint64

	// Box-Muller spare for NormFloat64.
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from the given seed via SplitMix64.
// Two generators constructed with the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the generator in place, exactly as if it had been
// constructed by New(seed). It lets hot loops keep a stack-allocated Rand
// value instead of heap-allocating a fresh generator per stream.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// Avoid the (astronomically unlikely, but invalid) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasSpare = false
	r.spare = 0
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Split returns a new generator whose stream is independent of r's
// subsequent outputs (seeded from r's next output). Use it to give each
// simulated component its own stream so that adding draws to one component
// does not perturb another.
func (r *Rand) Split() *Rand { return New(r.Uint64()) }

// Fill fills dst with consecutive generator outputs, identical to calling
// Uint64 len(dst) times. The Xoshiro state lives in registers across the
// loop, so bulk consumers (Monte-Carlo fault injection) pay the state
// load/store once per batch rather than once per draw.
func (r *Rand) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// batchSize is the number of outputs prefetched per Fill by a Batch.
const batchSize = 64

// Batch serves draws from blocks of outputs prefetched with Fill. Values
// come out in exact generation order, so a Batch-driven consumer sees the
// same stream as one calling the underlying Rand directly (any prefetched
// values left unconsumed when the Batch is dropped are simply discarded).
// The zero value is not valid; call Reset first.
type Batch struct {
	r   *Rand
	buf [batchSize]uint64
	pos int
}

// Reset points the batch at a generator and empties the prefetch buffer.
func (b *Batch) Reset(r *Rand) {
	b.r = r
	b.pos = batchSize
}

// Uint64 returns the next 64 random bits, refilling from the underlying
// generator as needed. The buffered case is small enough to inline into
// the caller's draw loop; the refill stays out of line.
func (b *Batch) Uint64() uint64 {
	if b.pos < batchSize {
		v := b.buf[b.pos]
		b.pos++
		return v
	}
	return b.refill()
}

// refill is Uint64's slow path: it prefetches the next batchSize outputs
// and serves the first of them. It is marked noinline because inlining it
// would push Uint64 over the compiler's inlining budget.
//
//go:noinline
func (b *Batch) refill() uint64 {
	b.r.Fill(b.buf[:])
	b.pos = 1
	return b.buf[0]
}

// Intn returns a uniform random int in [0, n), consuming the same draws as
// Rand.Intn would. It panics if n <= 0.
func (b *Batch) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(b.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}
