// Package wear implements the two wear-leveling mechanisms of the DSN'17
// paper's memory system: Start-Gap inter-line wear leveling (Qureshi et
// al., MICRO 2009), which the baseline already employs, and the paper's
// proposed counter-based intra-line rotation that slides each line's
// compression window to spread wear across the cells of a line.
package wear

import "fmt"

// StartGap implements Start-Gap wear leveling over a region of n logical
// lines backed by n+1 physical lines. One physical line (the gap) is always
// unused; every psi writes the gap moves down by one slot (copying its
// neighbor's content), and after n+1 gap movements every logical line has
// been shifted by one physical slot, slowly rotating the address space.
type StartGap struct {
	n     int // logical lines
	psi   int // writes per gap movement
	start int // number of completed full rotations mod (n+1)
	gap   int // current gap position in [0, n]
	count int // writes since last gap movement
}

// NewStartGap creates a Start-Gap leveler for n logical lines, moving the
// gap every psi writes. The paper (and the original Start-Gap work) uses
// psi = 100; it returns an error for invalid parameters.
func NewStartGap(n, psi int) (*StartGap, error) {
	if n < 1 {
		return nil, fmt.Errorf("wear: start-gap needs >= 1 line, got %d", n)
	}
	if psi < 1 {
		return nil, fmt.Errorf("wear: start-gap gap interval must be >= 1, got %d", psi)
	}
	return &StartGap{n: n, psi: psi, gap: n}, nil
}

// Lines returns the number of logical lines.
func (s *StartGap) Lines() int { return s.n }

// PhysicalLines returns the number of physical lines (n+1, including gap).
func (s *StartGap) PhysicalLines() int { return s.n + 1 }

// Map translates a logical line index to its current physical index, per
// the original formulation: PA = (LA + Start) mod N, plus one if the slot
// is at or past the gap.
func (s *StartGap) Map(logical int) int {
	if logical < 0 || logical >= s.n {
		panic(fmt.Sprintf("wear: logical line %d out of range [0,%d)", logical, s.n))
	}
	pa := (logical + s.start) % s.n
	if pa >= s.gap {
		pa++
	}
	return pa
}

// Movement describes one gap movement: the physical line From was copied to
// the physical slot To (the old gap), and From became the new gap.
type Movement struct {
	From, To int
}

// OnWrite records one demand write to the region. When the write count
// reaches psi, the gap moves and the movement is returned so the caller can
// model the copy (which is itself a line write that wears cells).
func (s *StartGap) OnWrite() (Movement, bool) {
	s.count++
	if s.count < s.psi {
		return Movement{}, false
	}
	s.count = 0
	to := s.gap
	from := s.gap - 1
	if from < 0 {
		// Gap wraps: the line at the top physical slot moves to slot 0 and
		// one full rotation completes, so Start advances.
		from = s.n
		s.start = (s.start + 1) % s.n
	}
	s.gap = from
	return Movement{From: from, To: to}, true
}

// Gap returns the current physical gap position (for tests and inspection).
func (s *StartGap) Gap() int { return s.gap }

// Start returns the current start offset (for tests and inspection).
func (s *StartGap) Start() int { return s.start }
