package bdi

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
)

func lineFromU64(vals ...uint64) block.Block {
	var b block.Block
	for i, v := range vals {
		b.SetWord(i, v)
	}
	return b
}

// compressLine analyzes the line and materializes the chosen encoding.
func compressLine(b *block.Block) (Encoding, []byte) {
	enc := Analyze(b)
	return enc, AppendCompress(nil, b, enc)
}

func TestZeroLine(t *testing.T) {
	var b block.Block
	enc, data := compressLine(&b)
	if enc != EncZeros {
		t.Fatalf("encoding = %v, want zeros", enc)
	}
	if enc.CompressedSize() != 1 {
		t.Fatalf("size = %d, want 1", enc.CompressedSize())
	}
	out, err := Decompress(enc, data)
	if err != nil {
		t.Fatal(err)
	}
	if !block.Equal(&b, &out) {
		t.Fatal("round trip failed")
	}
}

func TestRepeatedLine(t *testing.T) {
	b := lineFromU64(7, 7, 7, 7, 7, 7, 7, 7)
	enc, data := compressLine(&b)
	if enc != EncRepeat {
		t.Fatalf("encoding = %v, want repeat", enc)
	}
	if len(data) != 8 {
		t.Fatalf("payload = %d bytes, want 8", len(data))
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestBase8Delta1(t *testing.T) {
	base := uint64(0x1000_0000_0000)
	b := lineFromU64(base, base+1, base+5, base-7, base+100, base-100, base+127, base-128)
	enc, data := compressLine(&b)
	if enc != EncB8D1 {
		t.Fatalf("encoding = %v, want base8-delta1", enc)
	}
	if len(data) != 16 {
		t.Fatalf("payload = %d bytes, want 16", len(data))
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestBase8Delta2(t *testing.T) {
	base := uint64(0xdead_0000_0000)
	b := lineFromU64(base, base+300, base-300, base+30000, base-30000, base+1, base, base+129)
	enc, data := compressLine(&b)
	if enc != EncB8D2 {
		t.Fatalf("encoding = %v, want base8-delta2", enc)
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestBase8Delta4(t *testing.T) {
	base := uint64(0xcafe_0000_0000_0000)
	b := lineFromU64(base, base+1<<20, base-1<<20, base+1<<30, base-1<<30, base+65536, base, base+3)
	enc, data := compressLine(&b)
	if enc != EncB8D4 {
		t.Fatalf("encoding = %v, want base8-delta4", enc)
	}
	if len(data) != 40 {
		t.Fatalf("payload = %d bytes, want 40", len(data))
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestBase4Delta1(t *testing.T) {
	var b block.Block
	base := uint32(0x4000_0000)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], base+uint32(i)-8)
	}
	enc, data := compressLine(&b)
	if enc != EncB4D1 {
		t.Fatalf("encoding = %v, want base4-delta1", enc)
	}
	if len(data) != 20 {
		t.Fatalf("payload = %d bytes, want 20", len(data))
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestBase4Delta2(t *testing.T) {
	var b block.Block
	base := uint32(0x1234_5678)
	deltas := []int32{0, 300, -300, 20000, -20000, 129, -129, 32767, -32768, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(int32(base)+deltas[i]))
	}
	enc, data := compressLine(&b)
	if enc != EncB4D2 {
		t.Fatalf("encoding = %v, want base4-delta2", enc)
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestBase2Delta1(t *testing.T) {
	var b block.Block
	base := uint16(0x8000)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint16(b[i*2:], base+uint16(i%128)-64)
	}
	enc, data := compressLine(&b)
	if enc != EncB2D1 {
		t.Fatalf("encoding = %v, want base2-delta1", enc)
	}
	if len(data) != 34 {
		t.Fatalf("payload = %d bytes, want 34", len(data))
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestIncompressible(t *testing.T) {
	r := rng.New(42)
	var b block.Block
	for i := 0; i < 8; i++ {
		b.SetWord(i, r.Uint64())
	}
	enc, data := compressLine(&b)
	if enc != EncUncompressed {
		t.Fatalf("encoding = %v, want uncompressed (random data)", enc)
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestModularDeltaBoundary(t *testing.T) {
	// Segments that straddle the unsigned wraparound must still compress
	// via modular (two's-complement) deltas.
	var b block.Block
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(int32(-3)+int32(i)))
	}
	enc, data := compressLine(&b)
	if enc == EncUncompressed {
		t.Fatal("wraparound deltas should still be compressible")
	}
	out, err := Decompress(enc, data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestCompressedSizesMatchPaperTable(t *testing.T) {
	// DSN'17 Table I: BDI compresses a 64-byte block to 1-40 bytes.
	sizes := map[Encoding]int{
		EncZeros: 1, EncRepeat: 8, EncB8D1: 16, EncB4D1: 20,
		EncB8D2: 24, EncB2D1: 34, EncB4D2: 36, EncB8D4: 40,
		EncUncompressed: 64,
	}
	for enc, want := range sizes {
		if got := enc.CompressedSize(); got != want {
			t.Errorf("%v size = %d, want %d", enc, got, want)
		}
	}
}

func TestPayloadLengthMatchesEncodingSize(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 500; trial++ {
		b := randomishLine(r, trial%6)
		enc, data := compressLine(&b)
		if len(data) != enc.CompressedSize() {
			t.Fatalf("%v payload %d != declared size %d", enc, len(data), enc.CompressedSize())
		}
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := Decompress(EncRepeat, []byte{1}); err == nil {
		t.Error("want error for short repeat payload")
	}
	if _, err := Decompress(EncB8D1, make([]byte, 3)); err == nil {
		t.Error("want error for short base-delta payload")
	}
	if _, err := Decompress(EncUncompressed, make([]byte, 10)); err == nil {
		t.Error("want error for short uncompressed payload")
	}
	if _, err := Decompress(Encoding(99), nil); err == nil {
		t.Error("want error for unknown encoding")
	}
}

func TestEncodingStrings(t *testing.T) {
	for e := EncZeros; e <= EncUncompressed; e++ {
		if e.String() == "" {
			t.Errorf("encoding %d has empty name", e)
		}
	}
	if Encoding(200).String() == "" {
		t.Error("unknown encoding should render a placeholder name")
	}
}

// randomishLine produces lines across the compressibility spectrum.
func randomishLine(r *rng.Rand, kind int) block.Block {
	var b block.Block
	switch kind {
	case 0: // zero
	case 1: // repeated
		v := r.Uint64()
		for i := 0; i < 8; i++ {
			b.SetWord(i, v)
		}
	case 2: // narrow 64-bit values
		base := r.Uint64()
		for i := 0; i < 8; i++ {
			b.SetWord(i, base+uint64(r.Intn(256))-128)
		}
	case 3: // narrow 32-bit values
		base := r.Uint32()
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(b[i*4:], base+uint32(r.Intn(65536))-32768)
		}
	case 4: // random
		for i := 0; i < 8; i++ {
			b.SetWord(i, r.Uint64())
		}
	default: // mixed
		for i := 0; i < 8; i++ {
			if r.Intn(2) == 0 {
				b.SetWord(i, uint64(r.Intn(1000)))
			} else {
				b.SetWord(i, r.Uint64())
			}
		}
	}
	return b
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, kind uint8) bool {
		r := rng.New(seed)
		b := randomishLine(r, int(kind%6))
		enc, data := compressLine(&b)
		out, err := Decompress(enc, data)
		return err == nil && block.Equal(&b, &out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompressPicksSmallestEncoding(t *testing.T) {
	// A line compressible as B8D1 must not be reported as B8D2/B8D4.
	r := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		b := randomishLine(r, 2)
		enc, _ := compressLine(&b)
		// Narrow 64-bit values with range < 256 centered on base fit B8D2
		// at worst; verify the chosen encoding is minimal by attempting all.
		bestSize := block.Size
		for _, cand := range []Encoding{EncB8D1, EncB8D2, EncB8D4, EncB4D1, EncB4D2, EncB2D1} {
			if tryRT(t, &b, cand) && cand.CompressedSize() < bestSize {
				bestSize = cand.CompressedSize()
			}
		}
		if enc.CompressedSize() > bestSize {
			t.Fatalf("chose %v (%dB) but %dB was achievable", enc, enc.CompressedSize(), bestSize)
		}
	}
}

// tryRT reports whether the block encodes losslessly under enc.
func tryRT(t *testing.T, b *block.Block, enc Encoding) bool {
	t.Helper()
	for _, bd := range baseDeltas {
		if bd.enc != enc {
			continue
		}
		if !fitsBaseDelta(b, bd.baseBytes, bd.deltaBytes) {
			return false
		}
		data := appendBaseDelta(nil, b, bd.baseBytes, bd.deltaBytes)
		out, err := Decompress(enc, data)
		return err == nil && block.Equal(b, &out)
	}
	return false
}

func BenchmarkCompress(b *testing.B) {
	r := rng.New(1)
	lines := make([]block.Block, 64)
	for i := range lines {
		lines[i] = randomishLine(r, i%6)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compressLine(&lines[i%len(lines)])
	}
}

func BenchmarkDecompress(b *testing.B) {
	r := rng.New(1)
	line := randomishLine(r, 2)
	enc, data := compressLine(&line)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(enc, data); err != nil {
			b.Fatal(err)
		}
	}
}
