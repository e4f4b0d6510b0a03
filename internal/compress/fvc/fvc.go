// Package fvc implements Frequent Value Compression (Yang & Gupta,
// "Frequent Value Compression in Data Caches", MICRO 2000) — reference
// [14] of the DSN'17 paper, which notes that its mechanism works with any
// value-popularity compressor. FVC is provided as the drop-in third
// algorithm demonstrating that claim (see compress.Compressor).
//
// FVC keeps a small dictionary of the most frequent 32-bit words. Each
// word of a line encodes as a 1-bit flag followed by either a dictionary
// index (log2(len(dict)) bits) or the verbatim 32-bit word. A line of all
// dictionary hits compresses 8x; dictionary misses cost 33 bits per word,
// so incompressible lines expand slightly (the selector falls back to raw).
package fvc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pcmcomp/internal/bitio"
	"pcmcomp/internal/block"
)

const wordsPerLine = block.Size / 4

// Dict is a frequent-value dictionary. Construct with NewDict.
type Dict struct {
	values []uint32
	index  map[uint32]int
	idxLen int // bits per dictionary index
}

// NewDict builds a dictionary from explicit values. The value count must
// be a power of two in [2, 256]. Duplicate values are rejected.
func NewDict(values []uint32) (*Dict, error) {
	n := len(values)
	if n < 2 || n > 256 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fvc: dictionary size %d must be a power of two in [2,256]", n)
	}
	d := &Dict{
		values: append([]uint32(nil), values...),
		index:  make(map[uint32]int, n),
		idxLen: bits.Len(uint(n - 1)),
	}
	for i, v := range d.values {
		if _, dup := d.index[v]; dup {
			return nil, fmt.Errorf("fvc: duplicate dictionary value %#x", v)
		}
		d.index[v] = i
	}
	return d, nil
}

// Size returns the dictionary's entry count.
func (d *Dict) Size() int { return len(d.values) }

// CompressedBits returns the exact compressed size of the line in bits.
func (d *Dict) CompressedBits(b *block.Block) int {
	n := 0
	for w := 0; w < wordsPerLine; w++ {
		if _, ok := d.index[binary.LittleEndian.Uint32(b[w*4:])]; ok {
			n += 1 + d.idxLen
		} else {
			n += 1 + 32
		}
	}
	return n
}

// CompressedSize returns the compressed size in whole bytes.
func (d *Dict) CompressedSize(b *block.Block) int {
	return (d.CompressedBits(b) + 7) / 8
}

// AppendCompress appends the FVC bitstream for the line to dst and returns
// the extended slice. When dst has enough spare capacity, no heap
// allocation occurs.
func (d *Dict) AppendCompress(dst []byte, b *block.Block) []byte {
	var w bitio.Writer
	w.Reset(dst)
	for i := 0; i < wordsPerLine; i++ {
		v := binary.LittleEndian.Uint32(b[i*4:])
		if idx, ok := d.index[v]; ok {
			w.Write(1, 1)
			w.Write(uint64(idx), d.idxLen)
		} else {
			w.Write(0, 1)
			w.Write(uint64(v), 32)
		}
	}
	return w.Bytes()
}

// Decompress reconstructs a line from an FVC stream produced with the same
// dictionary.
func (d *Dict) Decompress(data []byte) (block.Block, error) {
	var out block.Block
	var r bitio.Reader
	r.Reset(data)
	for i := 0; i < wordsPerLine; i++ {
		flag, ok := r.Read(1)
		if !ok {
			return out, fmt.Errorf("fvc: truncated stream at word %d (flag)", i)
		}
		if flag == 1 {
			idx, ok := r.Read(d.idxLen)
			if !ok {
				return out, fmt.Errorf("fvc: truncated stream at word %d (index)", i)
			}
			binary.LittleEndian.PutUint32(out[i*4:], d.values[idx])
			continue
		}
		v, ok := r.Read(32)
		if !ok {
			return out, fmt.Errorf("fvc: truncated stream at word %d (verbatim)", i)
		}
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out, nil
}
