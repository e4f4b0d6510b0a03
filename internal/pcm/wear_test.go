package pcm

import (
	"math"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/rng"
)

// refLine is the plain model the bit-sliced wear planes replace: one
// uint32 budget per cell, programmed and worn one bit at a time.
type refLine struct {
	data      block.Block
	remaining [block.Bits]uint32
	faults    ecc.FaultSet
}

func (r *refLine) writeWindow(newData *block.Block, startByte, lengthBytes int) WriteResult {
	var res WriteResult
	end := min((startByte+lengthBytes)*8, block.Bits)
	for i := startByte * 8; i < end; i++ {
		nv := newData.Bit(i)
		if r.data.Bit(i) == nv {
			continue
		}
		res.FlipsNeeded++
		if r.faults.Contains(i) {
			res.StuckFlips++
			continue
		}
		res.FlipsWritten++
		if nv {
			res.Sets++
		} else {
			res.Resets++
		}
		r.data.SetBit(i, nv)
		r.remaining[i]--
		if r.remaining[i] == 0 {
			r.faults.Add(i)
			res.NewFaults++
		}
	}
	return res
}

// wearHarness drives one Line and its reference model in lockstep.
type wearHarness struct {
	t    testing.TB
	line *Line
	ref  refLine
}

// newWearHarness pairs a fresh line with a model holding its budgets.
func newWearHarness(t testing.TB, line *Line, budget [block.Bits]uint32) *wearHarness {
	h := &wearHarness{t: t, line: line}
	h.ref.remaining = budget
	h.check("fresh line")
	return h
}

// write stores data's (possibly wrapping) byte window of size bytes at
// origin, split into head and tail writes as the controller does.
func (h *wearHarness) write(data *block.Block, origin, size int) {
	head := min(size, block.Size-origin)
	for _, win := range [][2]int{{origin, head}, {0, size - head}} {
		if win[1] == 0 {
			continue
		}
		var got WriteResult
		h.line.WriteWindow(data, win[0], win[1], &got)
		// check compares the full fault set with the model after every
		// write, so a count is all the result needs to carry.
		if want := h.ref.writeWindow(data, win[0], win[1]); got != want {
			h.t.Fatalf("window [%d,+%d): got %+v, want %+v", win[0], win[1], got, want)
		}
		h.check("after write")
	}
}

func (h *wearHarness) check(when string) {
	h.t.Helper()
	if *h.line.Data() != h.ref.data {
		h.t.Fatalf("%s: stored data differs from the model", when)
	}
	if *h.line.Faults() != h.ref.faults {
		h.t.Fatalf("%s: faults %v, want %v", when, h.line.Faults().Indices(), h.ref.faults.Indices())
	}
	for i := 0; i < block.Bits; i++ {
		if got, want := h.line.Remaining(i), h.ref.remaining[i]; got != want {
			h.t.Fatalf("%s: Remaining(%d) = %d, want %d", when, i, got, want)
		}
	}
}

// drive applies n random writes of random data at random windows.
func (h *wearHarness) drive(r *rng.Rand, n int) {
	for i := 0; i < n; i++ {
		var d block.Block
		for w := 0; w < block.Bits/64; w++ {
			d.SetWord(w, r.Uint64())
		}
		h.write(&d, r.Intn(block.Size), 1+r.Intn(block.Size))
	}
}

func uniformBudget(v uint32) *[block.Bits]uint32 {
	var b [block.Bits]uint32
	for i := range b {
		b[i] = v
	}
	return &b
}

func TestWearPlanesMatchReferenceModel(t *testing.T) {
	mixed := [...]uint32{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 255, 256, 257, math.MaxUint32}
	r := rng.New(7)
	var mix [block.Bits]uint32
	for i := range mix {
		mix[i] = mixed[r.Intn(len(mixed))]
	}
	cases := []struct {
		name   string
		budget *[block.Bits]uint32
		k      int
	}{
		{"all 1", uniformBudget(1), 0},
		{"all 2", uniformBudget(2), 1},
		{"all 8", uniformBudget(8), 3},
		{"all 9", uniformBudget(9), 4},
		{"all 64", uniformBudget(64), 6},
		{"all MaxUint32", uniformBudget(math.MaxUint32), 32},
		{"mixed", &mix, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newWearHarness(t, newLine(tc.budget), *tc.budget)
			if h.line.k != tc.k {
				t.Fatalf("k = %d, want %d", h.line.k, tc.k)
			}
			h.drive(rng.New(uint64(tc.k)+1), 400)
		})
	}
}

func TestSampledWearPlanesMatchReferenceModel(t *testing.T) {
	for _, e := range []Endurance{
		{Mean: 1, CoV: 0},
		{Mean: 16, CoV: 0},
		{Mean: 12, CoV: 0.25},
		{Mean: 40, CoV: 0.25},
		{Mean: 300, CoV: 0.15},
		{Mean: 1e10, CoV: 0}, // clamped to MaxUint32: k = 32
	} {
		cfg := smallConfig(e.Mean)
		cfg.Endurance = e
		m := New(cfg)
		for addr := 0; addr < 4; addr++ {
			h := newWearHarness(t, m.Line(addr), m.cfg.budgets(addr))
			h.drive(rng.New(uint64(addr)+1), 200)
		}
	}
}

func TestClampedBudgetUsesAllPlanes(t *testing.T) {
	cfg := smallConfig(1e10)
	cfg.Endurance.CoV = 0
	l := New(cfg).Line(0)
	if l.k != 32 || len(l.wear) != 8*32 {
		t.Fatalf("k = %d, %d plane words; want 32, 256", l.k, len(l.wear))
	}
	if got := l.Remaining(100); got != math.MaxUint32 {
		t.Fatalf("Remaining = %d, want MaxUint32", got)
	}
}

// FuzzLineWriteWindow checks the wear planes against the reference model on
// fuzzed endurance populations and write sequences. Each pair of ops bytes
// is one write: window origin and size; its data comes from the seed.
func FuzzLineWriteWindow(f *testing.F) {
	f.Add(uint64(1), uint16(4), uint8(0), []byte{0, 63, 60, 10, 5, 5, 62, 64})
	f.Add(uint64(2), uint16(0), uint8(1), []byte{1, 2, 3, 4, 63, 1})
	f.Add(uint64(3), uint16(255), uint8(3), []byte{32, 40, 8, 8, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, mean uint16, cov uint8, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		cfg := smallConfig(1 + float64(mean%300))
		cfg.Endurance.CoV = float64(cov%4) * 0.1
		cfg.Seed = seed
		m := New(cfg)
		h := newWearHarness(t, m.Line(3), m.cfg.budgets(3))
		r := rng.New(seed)
		for i := 0; i+1 < len(ops); i += 2 {
			var d block.Block
			for w := 0; w < block.Bits/64; w++ {
				d.SetWord(w, r.Uint64())
			}
			h.write(&d, int(ops[i])%block.Size, 1+int(ops[i+1])%block.Size)
		}
	})
}
