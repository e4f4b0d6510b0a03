// Package compress provides the memory controller's compression front-end,
// Compressor: it runs BDI and FPC in parallel on every write-back (as the
// DSN'17 paper's controller does), picks whichever yields the smaller
// output ("BEST"), and defines the 5-bit encoding metadata stored alongside
// each compressed line. Configurations of the same Compressor give the
// paper's single-codec views (Figure 3's BDI-only and FPC-only columns) and
// add FVC to the race, since the paper's mechanism works with any
// value-popularity compressor (§III).
//
// The controller stores, per line, a 5-bit encoding field that identifies
// both the algorithm and (for BDI) the base/delta geometry, so that a read
// can be routed to the right decompressor without trial decoding.
package compress

import (
	"fmt"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress/bdi"
	"pcmcomp/internal/compress/fpc"
)

// Encoding is the 5-bit per-line compression-encoding metadata field.
type Encoding uint8

// Encodings. Values fit in 5 bits (0-31).
const (
	// EncUncompressed marks a line stored verbatim.
	EncUncompressed Encoding = 0
	// EncBDIZeros .. EncBDIB2D1 mirror the BDI encodings.
	EncBDIZeros  Encoding = 1
	EncBDIRepeat Encoding = 2
	EncBDIB8D1   Encoding = 3
	EncBDIB8D2   Encoding = 4
	EncBDIB8D4   Encoding = 5
	EncBDIB4D1   Encoding = 6
	EncBDIB4D2   Encoding = 7
	EncBDIB2D1   Encoding = 8
	// EncFPC marks an FPC bitstream.
	EncFPC Encoding = 9
	// EncFVC marks a Frequent-Value-Compression payload. FVC needs a
	// dictionary shared between compressor and decompressor, so only a
	// Compressor with one attached produces or decodes it.
	EncFVC Encoding = 10

	// NumEncodings is one past the largest valid encoding value.
	NumEncodings = 11
)

// MetadataBits is the width of the per-line encoding field (paper §III-B).
const MetadataBits = 5

// String returns a short name for the encoding.
func (e Encoding) String() string {
	switch {
	case e == EncUncompressed:
		return "raw"
	case e >= EncBDIZeros && e <= EncBDIB2D1:
		return "bdi/" + e.bdiEncoding().String()
	case e == EncFPC:
		return "fpc"
	case e == EncFVC:
		return "fvc"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// IsCompressed reports whether the encoding denotes compressed storage.
func (e Encoding) IsCompressed() bool { return e != EncUncompressed }

// DecompressionCycles returns the modeled decompression latency in CPU
// cycles for a line stored under this encoding (0 for raw lines). FVC's
// dictionary lookup is as fast as BDI's adder: 1 cycle.
func (e Encoding) DecompressionCycles() int {
	switch {
	case e == EncUncompressed:
		return 0
	case e == EncFPC:
		return fpc.DecompressionCycles
	default: // BDI geometries and FVC
		return bdi.DecompressionCycles
	}
}

func (e Encoding) bdiEncoding() bdi.Encoding {
	return bdi.Encoding(e-EncBDIZeros) + bdi.EncZeros
}

func fromBDI(e bdi.Encoding) Encoding {
	if e == bdi.EncUncompressed {
		return EncUncompressed
	}
	return Encoding(e-bdi.EncZeros) + EncBDIZeros
}

// Result is the outcome of compressing one 64-byte line.
type Result struct {
	// Encoding identifies the winning algorithm/geometry.
	Encoding Encoding
	// Data is the compressed payload (the verbatim line for EncUncompressed).
	Data []byte
}

// Size returns the stored size in bytes.
func (r Result) Size() int { return len(r.Data) }

// Ratio returns compressed size / original size, the paper's CR metric.
func (r Result) Ratio() float64 { return float64(len(r.Data)) / float64(block.Size) }
