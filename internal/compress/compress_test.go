package compress

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress/bdi"
	"pcmcomp/internal/compress/fpc"
	"pcmcomp/internal/rng"
)

func TestBestPicksSmallerOfBDIAndFPC(t *testing.T) {
	var c Compressor
	r := rng.New(9)
	for trial := 0; trial < 1000; trial++ {
		var b block.Block
		for i := 0; i < 16; i++ {
			var w uint32
			switch r.Intn(5) {
			case 0:
				w = 0
			case 1:
				w = uint32(r.Intn(256)) - 128
			case 2:
				w = uint32(r.Intn(1 << 16))
			case 3:
				w = uint32(r.Uint64())
			default:
				w = 0x01010101 * uint32(r.Intn(256))
			}
			binary.LittleEndian.PutUint32(b[i*4:], w)
		}
		best := c.Compress(&b)
		bdiSize := len(bdi.AppendCompress(nil, &b, bdi.Analyze(&b)))
		fpcSize := fpc.CompressedSize(&b)
		want := bdiSize
		if fpcSize < want {
			want = fpcSize
		}
		if want > block.Size {
			want = block.Size
		}
		if best.Size() != want {
			t.Fatalf("BEST size %d, want min(bdi=%d, fpc=%d, raw=64)", best.Size(), bdiSize, fpcSize)
		}
	}
}

func TestRoundTripAllPaths(t *testing.T) {
	var c Compressor
	f := func(seed uint64, kind uint8) bool {
		r := rng.New(seed)
		var b block.Block
		switch kind % 4 {
		case 0: // zeros
		case 1: // narrow values (BDI territory)
			base := r.Uint64()
			for i := 0; i < 8; i++ {
				b.SetWord(i, base+uint64(r.Intn(100)))
			}
		case 2: // FPC-friendly small words
			for i := 0; i < 16; i++ {
				binary.LittleEndian.PutUint32(b[i*4:], uint32(r.Intn(16))-8)
			}
		default: // random
			for i := 0; i < 8; i++ {
				b.SetWord(i, r.Uint64())
			}
		}
		res := c.Compress(&b)
		out, err := c.Decompress(res.Encoding, res.Data)
		return err == nil && block.Equal(&b, &out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNeverExpands(t *testing.T) {
	var c Compressor
	r := rng.New(31)
	for trial := 0; trial < 500; trial++ {
		var b block.Block
		for i := 0; i < 8; i++ {
			b.SetWord(i, r.Uint64())
		}
		res := c.Compress(&b)
		if res.Size() > block.Size {
			t.Fatalf("BEST expanded to %d bytes", res.Size())
		}
		if res.Size() == block.Size && res.Encoding != EncUncompressed {
			t.Fatalf("full-size result should be raw, got %v", res.Encoding)
		}
	}
}

func TestEncodingFitsInMetadataBits(t *testing.T) {
	if NumEncodings > 1<<MetadataBits {
		t.Fatalf("%d encodings do not fit in %d bits", NumEncodings, MetadataBits)
	}
}

func TestDecompressionCycles(t *testing.T) {
	// Table I of the paper: BDI 1 cycle, FPC 5 cycles.
	if got := EncBDIB8D1.DecompressionCycles(); got != 1 {
		t.Errorf("BDI latency = %d, want 1", got)
	}
	if got := EncFPC.DecompressionCycles(); got != 5 {
		t.Errorf("FPC latency = %d, want 5", got)
	}
	if got := EncUncompressed.DecompressionCycles(); got != 0 {
		t.Errorf("raw latency = %d, want 0", got)
	}
}

func TestZeroLineIsOneByte(t *testing.T) {
	var c Compressor
	var b block.Block
	res := c.Compress(&b)
	if res.Size() != 1 {
		t.Fatalf("zero line compressed to %d bytes, want 1 (BDI zeros)", res.Size())
	}
	if res.Encoding != EncBDIZeros {
		t.Fatalf("encoding = %v, want bdi/zeros", res.Encoding)
	}
}

func TestCompressBDIOnly(t *testing.T) {
	var b block.Block
	b.SetWord(0, 42)
	for i := 1; i < 8; i++ {
		b.SetWord(i, 42+uint64(i))
	}
	c := Compressor{DisableFPC: true}
	res := c.Compress(&b)
	if res.Encoding == EncFPC {
		t.Fatal("BDI-only Compressor returned FPC")
	}
	out, err := c.Decompress(res.Encoding, res.Data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestCompressFPCOnly(t *testing.T) {
	var b block.Block
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(i)-8)
	}
	c := Compressor{DisableBDI: true}
	res := c.Compress(&b)
	if res.Encoding != EncFPC {
		t.Fatalf("encoding = %v, want fpc", res.Encoding)
	}
	out, err := c.Decompress(res.Encoding, res.Data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}

	// Incompressible data must fall back to raw rather than expand.
	r := rng.New(4)
	for i := 0; i < 8; i++ {
		b.SetWord(i, r.Uint64())
	}
	res = c.Compress(&b)
	if res.Encoding != EncUncompressed || res.Size() != block.Size {
		t.Fatalf("incompressible FPC result: %v size %d", res.Encoding, res.Size())
	}
}

func TestRatio(t *testing.T) {
	var c Compressor
	var b block.Block
	res := c.Compress(&b)
	if got := res.Ratio(); got != 1.0/64 {
		t.Fatalf("ratio = %v, want 1/64", got)
	}
}

func TestDecompressErrors(t *testing.T) {
	var c Compressor
	if _, err := c.Decompress(EncUncompressed, []byte{1, 2}); err == nil {
		t.Error("want error for short raw payload")
	}
	if _, err := c.Decompress(Encoding(31), nil); err == nil {
		t.Error("want error for unknown encoding")
	}
}

func TestStringNames(t *testing.T) {
	for e := Encoding(0); e < NumEncodings; e++ {
		if e.String() == "" {
			t.Errorf("encoding %d has empty name", e)
		}
	}
}

func BenchmarkBestCompress(b *testing.B) {
	r := rng.New(1)
	lines := make([]block.Block, 64)
	for li := range lines {
		for i := 0; i < 8; i++ {
			if r.Intn(2) == 0 {
				lines[li].SetWord(i, uint64(r.Intn(1000)))
			} else {
				lines[li].SetWord(i, r.Uint64())
			}
		}
	}
	var c Compressor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Compress(&lines[i%len(lines)])
	}
}
