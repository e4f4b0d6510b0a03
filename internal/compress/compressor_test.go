package compress

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress/bdi"
	"pcmcomp/internal/compress/fpc"
	"pcmcomp/internal/compress/fvc"
	"pcmcomp/internal/rng"
	"pcmcomp/internal/workload"
)

// randomMixLine builds a line mixing narrow and wide words, exercising the
// full BDI/FPC/raw decision space.
func randomMixLine(r *rng.Rand) block.Block {
	var b block.Block
	for w := 0; w < 8; w++ {
		switch r.Intn(4) {
		case 0:
			b.SetWord(w, 0)
		case 1:
			b.SetWord(w, uint64(r.Intn(200)))
		case 2:
			b.SetWord(w, 0x1000_0000+uint64(r.Intn(64)))
		default:
			b.SetWord(w, r.Uint64())
		}
	}
	return b
}

// oracleBest is the reference BEST-of race the Compressor must reproduce.
// It materializes every enabled candidate with AppendCompress and keeps
// the shortest payload: candidates run in the order BDI, FPC, FVC and a
// later one must be strictly shorter to win, so BDI wins a tie with FPC,
// FVC must be strictly smaller than both, and a line that nothing shrinks
// below 64 bytes stays raw.
func oracleBest(c *Compressor, b *block.Block) (Encoding, []byte) {
	enc, best := EncUncompressed, append([]byte(nil), b[:]...)
	consider := func(e Encoding, data []byte) {
		if len(data) < len(best) {
			enc, best = e, data
		}
	}
	if !c.DisableBDI {
		be := bdi.Analyze(b)
		consider(fromBDI(be), bdi.AppendCompress(nil, b, be))
	}
	if !c.DisableFPC {
		consider(EncFPC, fpc.AppendCompress(nil, b))
	}
	if c.FVC != nil {
		consider(EncFVC, c.FVC.AppendCompress(nil, b))
	}
	return enc, best
}

// oracleSentinels are word values no codec but a matching FVC dictionary
// compresses well.
var oracleSentinels = []uint32{0xdead0001, 0xbeef4407, 0xcafe1993, 0xf00d7321}

// oracleCorpus returns write-backs from every Table III workload plus
// synthetic narrow, small, sign-extended, random and sentinel-salted lines.
func oracleCorpus(t *testing.T) []block.Block {
	t.Helper()
	var lines []block.Block
	for _, p := range workload.Profiles() {
		g, err := workload.NewGenerator(p, 256, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			lines = append(lines, g.Next().Data)
		}
	}
	r := rng.New(77)
	for i := 0; i < 2500; i++ {
		var b block.Block
		switch i % 5 {
		case 0: // narrow values around a wide base
			base := r.Uint64()
			for w := 0; w < 8; w++ {
				b.SetWord(w, base+uint64(r.Intn(1<<uint(1+r.Intn(15)))))
			}
		case 1: // small 64-bit values, where BDI and FPC sizes can tie
			for w := 0; w < 8; w++ {
				b.SetWord(w, uint64(r.Intn(1<<uint(1+r.Intn(12)))))
			}
		case 2: // sign-extended small 32-bit words
			for w := 0; w < 16; w++ {
				binary.LittleEndian.PutUint32(b[w*4:], uint32(r.Intn(1<<uint(1+r.Intn(16))))-1<<15)
			}
		case 3: // sentinels mixed with narrow and random words
			b = randomMixLine(r)
			for w := 0; w < 16; w += 1 + r.Intn(3) {
				binary.LittleEndian.PutUint32(b[w*4:], oracleSentinels[r.Intn(len(oracleSentinels))])
			}
		default:
			b = randomMixLine(r)
		}
		lines = append(lines, b)
	}
	return lines
}

// TestCompressorMatchesOracle pins the two-phase scratch Compressor to
// oracleBest byte-for-byte in every configuration, and checks that each
// candidate wins somewhere and that BDI and FPC tie somewhere, so no arm
// of the race goes untested.
func TestCompressorMatchesOracle(t *testing.T) {
	dict, err := fvc.NewDict(oracleSentinels)
	if err != nil {
		t.Fatal(err)
	}
	corpus := oracleCorpus(t)
	ties := 0
	for i := range corpus {
		size := bdi.Analyze(&corpus[i]).CompressedSize()
		if size < block.Size && size == fpc.CompressedSize(&corpus[i]) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("corpus has no BDI/FPC size tie")
	}
	for _, tc := range []struct {
		name string
		cfg  Compressor
		wins []string // codecs that must win at least one line
	}{
		{"bdi+fpc", Compressor{}, []string{"raw", "bdi", "fpc"}},
		{"bdi", Compressor{DisableFPC: true}, []string{"raw", "bdi"}},
		{"fpc", Compressor{DisableBDI: true}, []string{"raw", "fpc"}},
		{"bdi+fpc+fvc", Compressor{FVC: dict}, []string{"raw", "bdi", "fpc", "fvc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cfg
			won := make(map[string]int)
			for i := range corpus {
				b := &corpus[i]
				got := c.Compress(b)
				enc, data := oracleBest(&c, b)
				if got.Encoding != enc || !bytes.Equal(got.Data, data) {
					t.Fatalf("line %d: compressor %v/%d, oracle %v/%d",
						i, got.Encoding, got.Size(), enc, len(data))
				}
				won[strings.SplitN(enc.String(), "/", 2)[0]]++
				out, err := c.Decompress(got.Encoding, got.Data)
				if err != nil || !block.Equal(b, &out) {
					t.Fatalf("line %d: round trip failed: %v", i, err)
				}
			}
			for _, codec := range tc.wins {
				if won[codec] == 0 {
					t.Errorf("%s never won on the corpus (wins: %v)", codec, won)
				}
			}
		})
	}
}

// TestCompressorZeroAllocs guards the tentpole invariant at its source:
// a warmed Compressor never touches the heap, for any line kind.
func TestCompressorZeroAllocs(t *testing.T) {
	var c Compressor
	r := rng.New(5)
	lines := make([]block.Block, 32)
	for i := range lines {
		lines[i] = randomMixLine(r)
	}
	var b block.Block
	c.Compress(&b) // warm the scratch buffer
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		c.Compress(&lines[i%len(lines)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Compressor.Compress allocates %.1f times per call, want 0", allocs)
	}
}

// TestReusedCompressorMatchesFresh checks that the scratch buffer carries
// no state between calls: one zero-value Compressor reused over a stream
// of raw, BDI and FPC lines gives the same encoding and bytes as a fresh
// zero-value Compressor per line.
func TestReusedCompressorMatchesFresh(t *testing.T) {
	var reused Compressor
	r := rng.New(1)
	for i := 0; i < 300; i++ {
		var b block.Block
		for w := 0; w < 8; w++ {
			if r.Intn(2) == 0 {
				b.SetWord(w, uint64(r.Intn(100)))
			} else {
				b.SetWord(w, r.Uint64())
			}
		}
		var fresh Compressor
		got, want := reused.Compress(&b), fresh.Compress(&b)
		if got.Encoding != want.Encoding || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("line %d: reused %v/%d, fresh %v/%d",
				i, got.Encoding, got.Size(), want.Encoding, want.Size())
		}
	}
}

func TestCompressorUsesFVCWhenItWins(t *testing.T) {
	// Distinct sentinel values repeated per-word: BDI sees no narrow
	// deltas, FPC sees no frequent patterns, but an FVC dictionary of
	// exactly those values compresses the line to a few bytes.
	sentinels := []uint32{0xdead0001, 0xbeef4407, 0xcafe1993, 0xf00d7321}
	dict, err := fvc.NewDict(sentinels)
	if err != nil {
		t.Fatal(err)
	}
	c := Compressor{FVC: dict}
	r := rng.New(2)
	var b block.Block
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], sentinels[r.Intn(len(sentinels))])
	}
	res := c.Compress(&b)
	if res.Encoding != EncFVC {
		t.Fatalf("encoding = %v, want fvc (size %d)", res.Encoding, res.Size())
	}
	if res.Size() > 8 {
		t.Fatalf("FVC size = %d, want <= 8", res.Size())
	}
	out, err := c.Decompress(res.Encoding, res.Data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestCompressorKeepsBDIWhenSmaller(t *testing.T) {
	dict, err := fvc.NewDict([]uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := Compressor{FVC: dict}
	var zero block.Block
	res := c.Compress(&zero)
	if res.Encoding != EncBDIZeros || res.Size() != 1 {
		t.Fatalf("zero line: %v/%d, want bdi-zeros/1", res.Encoding, res.Size())
	}
}

func TestFVCWithoutDictErrors(t *testing.T) {
	var c Compressor
	if _, err := c.Decompress(EncFVC, []byte{1, 2}); err == nil {
		t.Fatal("FVC decompress without dictionary accepted")
	}
}

func TestEncFVCProperties(t *testing.T) {
	if !EncFVC.IsCompressed() {
		t.Error("FVC should count as compressed")
	}
	if EncFVC.String() != "fvc" {
		t.Errorf("name = %q", EncFVC.String())
	}
	if EncFVC >= NumEncodings {
		t.Error("EncFVC outside the valid encoding range")
	}
}
