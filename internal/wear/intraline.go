package wear

import "fmt"

// IntraLine implements the paper's counter-based intra-line wear-leveling
// (§III-A.2): instead of a per-line write counter, a single saturating
// counter per memory bank counts writes; each time it saturates, the bank's
// window-rotation offset advances by a fixed step (one byte in the paper's
// configuration), and subsequent writes to the bank place their compression
// windows at the rotated origin. Over time every line's write pressure
// sweeps across all of its cells with near-zero hardware cost.
type IntraLine struct {
	limit     uint32 // writes per rotation (2^counterBits)
	step      int    // rotation step in bytes
	lineSz    int    // line size in bytes (rotation modulus)
	count     uint32
	offset    int // current rotation offset in bytes
	rotations int // total offset advances
}

// NewIntraLine builds a per-bank rotation counter. The paper's sensitivity
// analysis settled on counterBits = 16 and step = 1 byte for 64-byte lines.
func NewIntraLine(counterBits, stepBytes, lineSizeBytes int) (*IntraLine, error) {
	if counterBits < 1 || counterBits > 31 {
		return nil, fmt.Errorf("wear: counter width %d out of range [1,31]", counterBits)
	}
	if stepBytes < 1 || stepBytes >= lineSizeBytes {
		return nil, fmt.Errorf("wear: step %dB out of range [1,%d)", stepBytes, lineSizeBytes)
	}
	if lineSizeBytes < 2 {
		return nil, fmt.Errorf("wear: line size %dB too small", lineSizeBytes)
	}
	return &IntraLine{
		limit:  1 << uint(counterBits),
		step:   stepBytes,
		lineSz: lineSizeBytes,
	}, nil
}

// OnWrite records one write to the bank and returns true when the counter
// saturated on this write (i.e., the rotation offset just advanced).
func (w *IntraLine) OnWrite() bool {
	w.count++
	if w.count < w.limit {
		return false
	}
	w.count = 0
	w.offset = (w.offset + w.step) % w.lineSz
	w.rotations++
	return true
}

// Offset returns the bank's current window-origin rotation in bytes.
func (w *IntraLine) Offset() int { return w.offset }

// Rotations returns how many times the offset has advanced in total.
func (w *IntraLine) Rotations() int { return w.rotations }
