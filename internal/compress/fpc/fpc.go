// Package fpc implements Frequent Pattern Compression (FPC) for 64-byte
// memory lines, following Alameldeen & Wood ("Adaptive Cache Compression for
// High-Performance Processors", ISCA 2004; patterns from UW-CS TR-1500), as
// configured in the DSN'17 PCM paper (Table I: 4-byte input chunks
// compressed to 3-8 bits each, 5-cycle decompression).
//
// Each 32-bit word of the line is encoded as a 3-bit prefix followed by a
// variable number of data bits, chosen from seven frequent patterns; words
// matching no pattern are emitted verbatim after a 111 prefix. Runs of up to
// eight zero words share a single prefix.
package fpc

import (
	"encoding/binary"
	"fmt"

	"pcmcomp/internal/bitio"
	"pcmcomp/internal/block"
)

// DecompressionCycles is the modeled decompression latency of FPC
// (Table I of the DSN'17 paper).
const DecompressionCycles = 5

// Pattern prefixes (3 bits each).
const (
	prefixZeroRun     = 0 // run of 1-8 zero words; 3 data bits (run length - 1)
	prefix4BitSE      = 1 // 4-bit sign-extended value
	prefix8BitSE      = 2 // 8-bit sign-extended value
	prefix16BitSE     = 3 // 16-bit sign-extended value
	prefixHalfPadded  = 4 // upper halfword data, lower halfword zero
	prefixTwoHalfSE   = 5 // two halfwords, each a sign-extended byte
	prefixRepeatBytes = 6 // word with all four bytes identical
	prefixUncompress  = 7 // verbatim 32-bit word
)

// dataBits gives the number of payload bits that follow each prefix.
var dataBits = [8]int{3, 4, 8, 16, 16, 16, 8, 32}

const wordsPerLine = block.Size / 4

// CompressedBits returns the exact compressed size of the line in bits.
func CompressedBits(b *block.Block) int {
	bits := 0
	for i := 0; i < wordsPerLine; {
		w := binary.LittleEndian.Uint32(b[i*4:])
		if w == 0 {
			run := 1
			for i+run < wordsPerLine && run < 8 &&
				binary.LittleEndian.Uint32(b[(i+run)*4:]) == 0 {
				run++
			}
			bits += 3 + dataBits[prefixZeroRun]
			i += run
			continue
		}
		p := classify(w)
		bits += 3 + dataBits[p]
		i++
	}
	return bits
}

// CompressedSize returns the compressed size of the line in whole bytes.
func CompressedSize(b *block.Block) int {
	return (CompressedBits(b) + 7) / 8
}

// AppendCompress appends the FPC bitstream for the line to dst and returns
// the extended slice. The final partial byte, if any, is zero-padded. When
// dst has enough spare capacity, no heap allocation occurs.
func AppendCompress(dst []byte, b *block.Block) []byte {
	var w bitio.Writer
	w.Reset(dst)
	for i := 0; i < wordsPerLine; {
		v := binary.LittleEndian.Uint32(b[i*4:])
		if v == 0 {
			run := 1
			for i+run < wordsPerLine && run < 8 &&
				binary.LittleEndian.Uint32(b[(i+run)*4:]) == 0 {
				run++
			}
			w.Write(prefixZeroRun, 3)
			w.Write(uint64(run-1), 3)
			i += run
			continue
		}
		p := classify(v)
		w.Write(uint64(p), 3)
		w.Write(uint64(payload(v, p)), dataBits[p])
		i++
	}
	return w.Bytes()
}

// Decompress reconstructs a 64-byte line from an FPC bitstream. It returns
// an error if the stream is truncated or decodes to the wrong word count.
func Decompress(data []byte) (block.Block, error) {
	var out block.Block
	var r bitio.Reader
	r.Reset(data)
	i := 0
	for i < wordsPerLine {
		p, ok := r.Read(3)
		if !ok {
			return out, fmt.Errorf("fpc: truncated stream at word %d (prefix)", i)
		}
		d, ok := r.Read(dataBits[p])
		if !ok {
			return out, fmt.Errorf("fpc: truncated stream at word %d (payload)", i)
		}
		if p == prefixZeroRun {
			run := int(d) + 1
			if i+run > wordsPerLine {
				return out, fmt.Errorf("fpc: zero run of %d overflows line at word %d", run, i)
			}
			i += run // words are already zero
			continue
		}
		binary.LittleEndian.PutUint32(out[i*4:], expand(uint32(d), int(p)))
		i++
	}
	return out, nil
}

// classify returns the cheapest pattern that losslessly represents w (w != 0).
func classify(w uint32) int {
	s := int32(w)
	switch {
	case s >= -8 && s <= 7:
		return prefix4BitSE
	case s >= -128 && s <= 127:
		return prefix8BitSE
	case s >= -32768 && s <= 32767:
		return prefix16BitSE
	case w&0xffff == 0:
		return prefixHalfPadded
	case isTwoHalfSE(w):
		return prefixTwoHalfSE
	case isRepeatedBytes(w):
		return prefixRepeatBytes
	default:
		return prefixUncompress
	}
}

// isTwoHalfSE reports whether each 16-bit half of w is a sign-extended byte.
func isTwoHalfSE(w uint32) bool {
	lo := int16(w)
	hi := int16(w >> 16)
	return lo >= -128 && lo <= 127 && hi >= -128 && hi <= 127
}

func isRepeatedBytes(w uint32) bool {
	b0 := w & 0xff
	return w == b0|b0<<8|b0<<16|b0<<24
}

// payload extracts the data bits stored for word w under pattern p.
func payload(w uint32, p int) uint32 {
	switch p {
	case prefix4BitSE:
		return w & 0xf
	case prefix8BitSE:
		return w & 0xff
	case prefix16BitSE:
		return w & 0xffff
	case prefixHalfPadded:
		return w >> 16
	case prefixTwoHalfSE:
		return (w & 0xff) | (w >> 16 << 8 & 0xff00)
	case prefixRepeatBytes:
		return w & 0xff
	default:
		return w
	}
}

// expand reconstructs the 32-bit word from payload d under pattern p.
func expand(d uint32, p int) uint32 {
	switch p {
	case prefix4BitSE:
		return uint32(int32(d<<28) >> 28)
	case prefix8BitSE:
		return uint32(int32(d<<24) >> 24)
	case prefix16BitSE:
		return uint32(int32(d<<16) >> 16)
	case prefixHalfPadded:
		return d << 16
	case prefixTwoHalfSE:
		lo := uint32(int32(d<<24) >> 24)
		hi := uint32(int32(d>>8<<24) >> 24)
		return lo&0xffff | hi<<16
	case prefixRepeatBytes:
		return d | d<<8 | d<<16 | d<<24
	default:
		return d
	}
}
