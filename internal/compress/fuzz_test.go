package compress

import (
	"bytes"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress/bdi"
	"pcmcomp/internal/compress/fpc"
	"pcmcomp/internal/compress/fvc"
)

// Native fuzzing for the compression stack: any 64-byte input must
// round-trip losslessly through BDI, FPC, FVC and the BEST Compressor, the
// BEST result must never expand, and the decompress dispatch must survive
// arbitrary stored payloads.

func toBlock(data []byte) block.Block {
	var b block.Block
	copy(b[:], data)
	return b
}

// fuzzDict is an FVC dictionary of common and sentinel word values.
func fuzzDict(f *testing.F) *fvc.Dict {
	d, err := fvc.NewDict([]uint32{0, 1, 0xffffffff, 0x80000000,
		0xdead0001, 0xbeef4407, 0xcafe1993, 0xf00d7321})
	if err != nil {
		f.Fatal(err)
	}
	return d
}

func FuzzBestRoundTrip(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xab}, 64))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over!!!!!!!!"))
	var c Compressor
	f.Fuzz(func(t *testing.T, data []byte) {
		b := toBlock(data)
		res := c.Compress(&b)
		if res.Size() > block.Size {
			t.Fatalf("BEST expanded to %d bytes", res.Size())
		}
		out, err := c.Decompress(res.Encoding, res.Data)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !block.Equal(&b, &out) {
			t.Fatalf("round trip mismatch under %v", res.Encoding)
		}
	})
}

func FuzzBDIRoundTrip(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{1, 0, 0, 0, 0, 0, 0, 0}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := toBlock(data)
		enc := bdi.Analyze(&b)
		payload := bdi.AppendCompress(nil, &b, enc)
		out, err := bdi.Decompress(enc, payload)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !block.Equal(&b, &out) {
			t.Fatalf("round trip mismatch under %v", enc)
		}
	})
}

func FuzzFPCRoundTrip(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0, 0}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := toBlock(data)
		payload := fpc.AppendCompress(nil, &b)
		out, err := fpc.Decompress(payload)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !block.Equal(&b, &out) {
			t.Fatal("round trip mismatch")
		}
		if got, want := len(payload), fpc.CompressedSize(&b); got != want {
			t.Fatalf("payload %d bytes != declared %d", got, want)
		}
	})
}

// FuzzFVCRoundTrip encodes any line against a fixed dictionary and decodes
// it through the Compressor's dispatch.
func FuzzFVCRoundTrip(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0x01, 0x00, 0xad, 0xde}, 16))
	f.Add(bytes.Repeat([]byte{0x12, 0x34, 0x56, 0x78}, 16))
	c := Compressor{FVC: fuzzDict(f)}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := toBlock(data)
		payload := c.FVC.AppendCompress(nil, &b)
		if got, want := len(payload), c.FVC.CompressedSize(&b); got != want {
			t.Fatalf("payload %d bytes != declared %d", got, want)
		}
		out, err := c.Decompress(EncFVC, payload)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !block.Equal(&b, &out) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzFPCDecompressRobust feeds arbitrary bitstreams to the FPC decoder:
// it must either fail cleanly or produce a line, never panic.
func FuzzFPCDecompressRobust(f *testing.F) {
	var zero block.Block
	f.Add(fpc.AppendCompress(nil, &zero))
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fpc.Decompress(data)
	})
}

// FuzzDecompressRobust feeds an arbitrary (encoding, payload) pair to the
// decompress dispatch with an FVC dictionary attached, as a snapshot
// restore does with stored metadata: it must either fail cleanly or
// produce a line, never panic.
func FuzzDecompressRobust(f *testing.F) {
	c := Compressor{FVC: fuzzDict(f)}
	var narrow block.Block
	narrow.SetWord(3, 0x1234)
	for _, b := range []block.Block{narrow, toBlock(bytes.Repeat([]byte{0x01, 0x00, 0xad, 0xde}, 16))} {
		res := c.Compress(&b)
		f.Add(uint8(res.Encoding), bytes.Clone(res.Data))
	}
	f.Add(uint8(EncFPC), []byte{0xff})
	f.Add(uint8(EncUncompressed), make([]byte, 63))
	f.Add(uint8(31), []byte(nil))
	f.Fuzz(func(t *testing.T, enc uint8, data []byte) {
		_, _ = c.Decompress(Encoding(enc), data)
	})
}
