package fpc

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
)

func lineFromU32(vals ...uint32) block.Block {
	var b block.Block
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*4:], v)
	}
	return b
}

func roundTrip(t *testing.T, b *block.Block) {
	t.Helper()
	data := AppendCompress(nil, b)
	out, err := Decompress(data)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !block.Equal(b, &out) {
		t.Fatalf("round trip mismatch:\nin:  %s\nout: %s", b, &out)
	}
	if want := CompressedSize(b); len(data) != want {
		t.Fatalf("compressed length %d != CompressedSize %d", len(data), want)
	}
}

func TestZeroLineUsesZeroRuns(t *testing.T) {
	var b block.Block
	// 16 zero words = 2 runs of 8: 2 * (3+3) = 12 bits -> 2 bytes.
	if got := CompressedBits(&b); got != 12 {
		t.Fatalf("zero line = %d bits, want 12", got)
	}
	if got := CompressedSize(&b); got != 2 {
		t.Fatalf("zero line = %d bytes, want 2", got)
	}
	roundTrip(t, &b)
}

func TestPatternSizes(t *testing.T) {
	cases := []struct {
		name string
		word uint32
		bits int // for one such word (prefix + data)
	}{
		{"4bit-positive", 7, 3 + 4},
		{"4bit-negative", 0xfffffff9, 3 + 4}, // -7
		{"8bit", 100, 3 + 8},
		{"8bit-negative", 0xffffff80, 3 + 8}, // -128
		{"16bit", 30000, 3 + 16},
		{"16bit-negative", 0xffff8000, 3 + 16}, // -32768
		{"half-padded", 0x12340000, 3 + 16},
		{"two-half-se", 0x00450023, 3 + 16},
		{"two-half-se-neg", 0xfff300f1 & 0xffffffff, 3 + 32}, // hi=-13? 0xfff3 ok, lo=0x00f1=241 no -> uncompressed
		{"repeated-bytes", 0xabababab, 3 + 8},
		{"uncompressed", 0xdeadbeef, 3 + 32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// One interesting word + 15 uncompressible fillers keeps the
			// arithmetic simple: total = c.bits + 15*(3+32).
			filler := uint32(0xdeadbee1)
			words := make([]uint32, 16)
			words[0] = c.word
			for i := 1; i < 16; i++ {
				words[i] = filler
			}
			b := lineFromU32(words...)
			want := c.bits + 15*(3+32)
			if got := CompressedBits(&b); got != want {
				t.Fatalf("bits = %d, want %d", got, want)
			}
			roundTrip(t, &b)
		})
	}
}

func TestZeroRunSplitting(t *testing.T) {
	// 3 zeros, nonzero, 5 zeros, nonzero, 6 zeros: runs of 3, 5, 6.
	words := make([]uint32, 16)
	words[3] = 0x11223344
	words[9] = 0x55667788
	b := lineFromU32(words...)
	want := 3*(3+3) + 2*(3+32)
	if got := CompressedBits(&b); got != want {
		t.Fatalf("bits = %d, want %d", got, want)
	}
	roundTrip(t, &b)
}

func TestHalfPaddedVsSignExtendedPriority(t *testing.T) {
	// 0x00010000: upper half 1, lower half 0 -> half-padded (not 16-bit SE,
	// because as a signed value it's 65536 which doesn't fit in 16 bits).
	b := lineFromU32(0x00010000)
	data := AppendCompress(nil, &b)
	out, err := Decompress(data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestTwoHalfSE(t *testing.T) {
	// hi = -3 (0xfffd), lo = 100 (0x0064): both sign-extended bytes.
	w := uint32(0xfffd0064)
	if !isTwoHalfSE(w) {
		t.Fatal("0xfffd0064 should be two-half-SE")
	}
	b := lineFromU32(w)
	roundTrip(t, &b)
	// 0x0064 lo, hi 0x0180 (=384, not a sign-extended byte).
	if isTwoHalfSE(0x01800064) {
		t.Fatal("0x01800064 must not be two-half-SE")
	}
}

func TestClassifyPrecedence(t *testing.T) {
	// Zero is handled by run-length coding, never by classify.
	// Small positive values must take the cheapest pattern.
	if classify(1) != prefix4BitSE {
		t.Error("1 should be 4-bit")
	}
	if classify(127) != prefix8BitSE {
		t.Error("127 should be 8-bit")
	}
	if classify(0x7fff) != prefix16BitSE {
		t.Error("0x7fff should be 16-bit")
	}
	if classify(0xffff0000) != prefixHalfPadded {
		t.Error("0xffff0000 should be half-padded")
	}
	if classify(0x11111111) != prefixRepeatBytes {
		t.Error("0x11111111 should be repeated-bytes")
	}
	if classify(0x12345678) != prefixUncompress {
		t.Error("0x12345678 should be uncompressed")
	}
}

func TestWorstCaseSize(t *testing.T) {
	// All-uncompressible line: 16 * 35 bits = 560 bits = 70 bytes. FPC can
	// expand; the BEST-of selector in internal/compress falls back to raw.
	r := rng.New(3)
	var b block.Block
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], 0x40000000|uint32(r.Uint64())&0x3fffffff|1<<29)
	}
	if got := CompressedSize(&b); got > 70 {
		t.Fatalf("worst case %d bytes > 70", got)
	}
	roundTrip(t, &b)
}

func TestDecompressTruncated(t *testing.T) {
	b := lineFromU32(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	data := AppendCompress(nil, &b)
	if _, err := Decompress(data[:1]); err == nil {
		t.Fatal("want error for truncated stream")
	}
	if _, err := Decompress(nil); err == nil {
		t.Fatal("want error for empty stream")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, mix uint8) bool {
		r := rng.New(seed)
		var b block.Block
		for i := 0; i < 16; i++ {
			var w uint32
			switch (int(mix) + i) % 7 {
			case 0:
				w = 0
			case 1:
				w = uint32(r.Intn(16)) - 8
			case 2:
				w = uint32(r.Intn(256)) - 128
			case 3:
				w = uint32(r.Intn(65536)) - 32768
			case 4:
				w = uint32(r.Uint64()) << 16
			case 5:
				v := uint32(r.Intn(256))
				w = v | v<<8 | v<<16 | v<<24
			default:
				w = uint32(r.Uint64())
			}
			binary.LittleEndian.PutUint32(b[i*4:], w)
		}
		data := AppendCompress(nil, &b)
		out, err := Decompress(data)
		return err == nil && block.Equal(&b, &out) && len(data) == CompressedSize(&b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	r := rng.New(1)
	var line block.Block
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], uint32(r.Intn(65536))-32768)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AppendCompress(nil, &line)
	}
}

func BenchmarkDecompress(b *testing.B) {
	r := rng.New(1)
	var line block.Block
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], uint32(r.Intn(65536))-32768)
	}
	data := AppendCompress(nil, &line)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(data); err != nil {
			b.Fatal(err)
		}
	}
}
