package compress

import (
	"fmt"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress/bdi"
	"pcmcomp/internal/compress/fpc"
	"pcmcomp/internal/compress/fvc"
)

// Compressor is the BEST-of compression front-end and the only decompress
// dispatch. The zero value races BDI against FPC; DisableBDI or DisableFPC
// leaves a single codec, and an FVC dictionary adds a third candidate. It
// runs in two phases — analyze candidate sizes first, then materialize
// only the winner into a reusable scratch buffer — so a steady-state
// Compress call performs zero heap allocations.
//
// A Compressor is not safe for concurrent use; give each controller, and
// each loop, its own.
type Compressor struct {
	// FVC, when non-nil, adds frequent-value compression to the race.
	FVC *fvc.Dict
	// DisableBDI / DisableFPC remove a codec from the race; the zero value
	// keeps the default BDI+FPC configuration. Disabling everything (and
	// attaching no FVC dictionary) degenerates to uncompressed storage.
	DisableBDI bool
	DisableFPC bool

	buf []byte // payload scratch reused across calls
}

// Compress returns the smallest candidate encoding of the line: BDI wins a
// tie with FPC, FVC must be strictly smaller to win, and a line no codec
// shrinks below 64 bytes is stored raw. The returned Result's Data aliases
// the Compressor's scratch buffer and is only valid until the next call;
// copy it to retain.
func (c *Compressor) Compress(b *block.Block) Result {
	if cap(c.buf) < block.Size {
		c.buf = make([]byte, 0, block.Size)
	}

	// Phase 1: size race, no output materialized. A disabled codec races
	// with the uncompressible worst case so it can never win.
	bdiEnc := bdi.Analyze(b)
	bdiSize := block.Size
	if !c.DisableBDI {
		bdiSize = bdiEnc.CompressedSize()
	}
	fpcSize := block.Size
	if !c.DisableFPC {
		fpcSize = fpc.CompressedSize(b)
	}

	enc := EncUncompressed
	bestSize := block.Size
	switch {
	case bdiSize < block.Size && bdiSize <= fpcSize:
		enc, bestSize = fromBDI(bdiEnc), bdiSize
	case fpcSize < block.Size:
		enc, bestSize = EncFPC, fpcSize
	}
	if c.FVC != nil {
		if size := c.FVC.CompressedSize(b); size < bestSize {
			enc = EncFVC
		}
	}

	// Phase 2: materialize only the winner into the scratch buffer.
	switch {
	case enc == EncUncompressed:
		c.buf = append(c.buf[:0], b[:]...)
	case enc == EncFPC:
		c.buf = fpc.AppendCompress(c.buf[:0], b)
	case enc == EncFVC:
		c.buf = c.FVC.AppendCompress(c.buf[:0], b)
	default:
		c.buf = bdi.AppendCompress(c.buf[:0], b, bdiEnc)
	}
	return Result{Encoding: enc, Data: c.buf}
}

// Decompress reconstructs the original line from a stored payload and its
// 5-bit encoding metadata. FVC payloads need the dictionary they were
// compressed with attached; the codec flags do not restrict decoding.
func (c *Compressor) Decompress(enc Encoding, data []byte) (block.Block, error) {
	switch {
	case enc == EncUncompressed:
		var out block.Block
		if len(data) < block.Size {
			return out, fmt.Errorf("compress: raw payload is %d bytes, want %d", len(data), block.Size)
		}
		copy(out[:], data[:block.Size])
		return out, nil
	case enc >= EncBDIZeros && enc <= EncBDIB2D1:
		return bdi.Decompress(enc.bdiEncoding(), data)
	case enc == EncFPC:
		return fpc.Decompress(data)
	case enc == EncFVC && c.FVC != nil:
		return c.FVC.Decompress(data)
	case enc == EncFVC:
		return block.Block{}, fmt.Errorf("compress: FVC payload but no dictionary attached")
	default:
		return block.Block{}, fmt.Errorf("compress: unknown encoding %d", uint8(enc))
	}
}
