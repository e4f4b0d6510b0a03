package block

import (
	"testing"
	"testing/quick"

	"pcmcomp/internal/rng"
)

func randomBlock(r *rng.Rand) Block {
	var b Block
	for i := 0; i < 8; i++ {
		b.SetWord(i, r.Uint64())
	}
	return b
}

func TestWordRoundTrip(t *testing.T) {
	r := rng.New(1)
	var b Block
	words := make([]uint64, 8)
	for i := range words {
		words[i] = r.Uint64()
		b.SetWord(i, words[i])
	}
	for i, w := range words {
		if got := b.Word(i); got != w {
			t.Fatalf("word %d: got %x want %x", i, got, w)
		}
	}
}

func TestWordIsLittleEndian(t *testing.T) {
	var b Block
	b.SetWord(0, 0x0102030405060708)
	if b[0] != 0x08 || b[7] != 0x01 {
		t.Fatalf("not little-endian: % x", b[:8])
	}
}

func TestBitOps(t *testing.T) {
	var b Block
	for _, i := range []int{0, 1, 7, 8, 63, 64, 255, 511} {
		if b.Bit(i) {
			t.Fatalf("bit %d set in zero block", i)
		}
		b.SetBit(i, true)
		if !b.Bit(i) {
			t.Fatalf("bit %d not set after SetBit", i)
		}
		b.SetBit(i, false)
		if b.Bit(i) {
			t.Fatalf("bit %d set after clearing", i)
		}
	}
}

// diffBits counts the bit positions at which a and b differ, one bit at
// a time: a deliberately naive oracle for the word-wise HammingDistance.
func diffBits(a, b *Block) int {
	n := 0
	for i := 0; i < Bits; i++ {
		if a.Bit(i) != b.Bit(i) {
			n++
		}
	}
	return n
}

func TestHammingDistanceMatchesDiffBits(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 100; trial++ {
		a, b := randomBlock(r), randomBlock(r)
		if d, want := HammingDistance(&a, &b), diffBits(&a, &b); d != want {
			t.Fatalf("HammingDistance=%d but %d bits differ", d, want)
		}
	}
}

func TestHammingDistanceProperties(t *testing.T) {
	r := rng.New(11)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		a, b, c := randomBlock(rr), randomBlock(rr), randomBlock(rr)
		dAB := HammingDistance(&a, &b)
		dBA := HammingDistance(&b, &a)
		dAA := HammingDistance(&a, &a)
		dAC := HammingDistance(&a, &c)
		dBC := HammingDistance(&b, &c)
		// Symmetry, identity, triangle inequality.
		return dAB == dBA && dAA == 0 && dAC <= dAB+dBC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Error(err)
	}
	_ = r
}

func TestHammingDistanceWindow(t *testing.T) {
	var a, b Block
	b[0] = 0xff // 8 flips in byte 0
	b[10] = 0x0f
	b[63] = 0x01
	if got := HammingDistanceWindow(&a, &b, 0, 64); got != 13 {
		t.Fatalf("full window = %d, want 13", got)
	}
	if got := HammingDistanceWindow(&a, &b, 0, 1); got != 8 {
		t.Fatalf("byte 0 window = %d, want 8", got)
	}
	if got := HammingDistanceWindow(&a, &b, 1, 9); got != 0 {
		t.Fatalf("bytes 1-9 window = %d, want 0", got)
	}
	if got := HammingDistanceWindow(&a, &b, 10, 54); got != 5 {
		t.Fatalf("tail window = %d, want 5", got)
	}
	full := HammingDistance(&a, &b)
	split := HammingDistanceWindow(&a, &b, 0, 32) + HammingDistanceWindow(&a, &b, 32, 32)
	if full != split {
		t.Fatalf("windowed sum %d != full distance %d", split, full)
	}
}

func TestStringFormat(t *testing.T) {
	var b Block
	s := b.String()
	if len(s) == 0 {
		t.Fatal("empty string rendering")
	}
}

func BenchmarkHammingDistance(b *testing.B) {
	r := rng.New(1)
	x, y := randomBlock(r), randomBlock(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HammingDistance(&x, &y)
	}
}
