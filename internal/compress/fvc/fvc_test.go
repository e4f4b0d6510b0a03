package fvc

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
)

func mustDict(t *testing.T, values []uint32) *Dict {
	t.Helper()
	d, err := NewDict(values)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDictValidation(t *testing.T) {
	if _, err := NewDict([]uint32{1}); err == nil {
		t.Error("size 1 accepted")
	}
	if _, err := NewDict([]uint32{1, 2, 3}); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := NewDict(make([]uint32, 512)); err == nil {
		t.Error("size 512 accepted (and duplicates)")
	}
	if _, err := NewDict([]uint32{1, 1}); err == nil {
		t.Error("duplicate values accepted")
	}
	d := mustDict(t, []uint32{0, 1, 2, 3, 4, 5, 6, 7})
	if d.Size() != 8 || d.idxLen != 3 {
		t.Fatalf("size %d idxLen %d", d.Size(), d.idxLen)
	}
}

func TestAllHitsCompress8x(t *testing.T) {
	d := mustDict(t, []uint32{0, 0xdeadbeef, 42, 7})
	var b block.Block
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], 0xdeadbeef)
	}
	// 16 words x (1 + 2) bits = 48 bits = 6 bytes.
	if got := d.CompressedSize(&b); got != 6 {
		t.Fatalf("size = %d, want 6", got)
	}
	data := d.AppendCompress(nil, &b)
	out, err := d.Decompress(data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestAllMissesExpand(t *testing.T) {
	d := mustDict(t, []uint32{1, 2})
	r := rng.New(3)
	var b block.Block
	for i := 0; i < 8; i++ {
		b.SetWord(i, r.Uint64()|1<<40) // avoid accidental dictionary hits
	}
	// 16 x 33 bits = 528 bits = 66 bytes > 64: FVC expands on misses.
	if got := d.CompressedSize(&b); got != 66 {
		t.Fatalf("size = %d, want 66", got)
	}
	data := d.AppendCompress(nil, &b)
	out, err := d.Decompress(data)
	if err != nil || !block.Equal(&b, &out) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	d := mustDict(t, []uint32{0, 1, 0xffffffff, 0x80000000})
	f := func(seed uint64, hitMask uint16) bool {
		r := rng.New(seed)
		var b block.Block
		for i := 0; i < 16; i++ {
			if hitMask&(1<<uint(i)) != 0 {
				binary.LittleEndian.PutUint32(b[i*4:], d.values[r.Intn(4)])
			} else {
				binary.LittleEndian.PutUint32(b[i*4:], uint32(r.Uint64()))
			}
		}
		data := d.AppendCompress(nil, &b)
		out, err := d.Decompress(data)
		return err == nil && block.Equal(&b, &out) && len(data) == d.CompressedSize(&b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecompressTruncated(t *testing.T) {
	d := mustDict(t, []uint32{1, 2})
	var b block.Block
	data := d.AppendCompress(nil, &b)
	if _, err := d.Decompress(data[:1]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := d.Decompress(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}
