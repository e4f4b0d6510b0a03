package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pcmcomp/internal/rng"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if r.N() != 5 {
		t.Fatalf("N = %d", r.N())
	}
	if r.Mean() != 3 {
		t.Fatalf("mean = %v", r.Mean())
	}
	if r.Min() != 1 || r.Max() != 5 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
	if got, want := r.Variance(), 2.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, want)
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.N() != 0 {
		t.Fatal("empty accumulator should be zero-valued")
	}
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rr := rng.New(seed)
		count := int(n%50) + 2
		xs := make([]float64, count)
		var acc Running
		for i := range xs {
			xs[i] = rr.Float64()*200 - 100
			acc.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(count)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(count)
		return math.Abs(acc.Mean()-mean) < 1e-9 && math.Abs(acc.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for v := 0; v < 10; v++ {
		for i := 0; i <= v; i++ {
			h.Add(v)
		}
	}
	if h.Total() != 55 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Count(9) != 10 {
		t.Fatalf("count(9) = %d", h.Count(9))
	}
	if got := h.CDF(9); got != 1 {
		t.Fatalf("CDF(max) = %v", got)
	}
	if got := h.CDF(0); math.Abs(got-1.0/55) > 1e-12 {
		t.Fatalf("CDF(0) = %v", got)
	}
	// Percentile monotonicity.
	prev := -1
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(4)
	h.Add(-5)
	h.Add(100)
	if h.Count(0) != 1 || h.Count(3) != 1 {
		t.Fatal("out-of-range values not clamped")
	}
}

// TestHistogramOutOfRangeQueries covers the inputs that used to panic with
// an index-out-of-range: Add clamps, so Count/CDF must tolerate the same
// out-of-range values instead of indexing with them.
func TestHistogramOutOfRangeQueries(t *testing.T) {
	h := NewHistogram(4)
	h.Add(0)
	h.Add(3)
	if got := h.Count(-1); got != 0 {
		t.Errorf("Count(-1) = %d, want 0", got)
	}
	if got := h.Count(4); got != 0 {
		t.Errorf("Count(Buckets()) = %d, want 0", got)
	}
	if got := h.Count(100); got != 0 {
		t.Errorf("Count(100) = %d, want 0", got)
	}
	if got := h.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
	if got := h.CDF(100); got != 1 {
		t.Errorf("CDF(100) = %v, want 1", got)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(8)
	h.Add(2)
	h.Add(4)
	if got := h.Mean(); got != 3 {
		t.Fatalf("mean = %v", got)
	}
}

// TestHistogramPercentileNearestRank pins Percentile's nearest-rank (ceil)
// convention on a small sample with ties and a gap.
func TestHistogramPercentileNearestRank(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []int{0, 1, 1, 2, 3, 3, 3, 5} {
		h.Add(v)
	}
	for _, tc := range []struct {
		p    float64
		want int
	}{
		{0.1, 0}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {0.9, 5}, {1.0, 5},
	} {
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Demo", Columns: []string{"A", "B"}}
	tb.AddRow("row1", 1, 2.5)
	tb.AddRow("row2", 0.001, 1e-8)
	s := tb.String()
	for _, want := range []string{"Demo", "A", "B", "row1", "row2"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if tb.Rows() != 2 || tb.Value(0, 1) != 2.5 || tb.Label(1) != "row2" {
		t.Fatal("table accessors wrong")
	}
}

func TestRenderSeries(t *testing.T) {
	s1 := Series{Name: "one"}
	s2 := Series{Name: "two"}
	for i := 0; i < 3; i++ {
		s1.Append(float64(i), float64(i*i))
		s2.Append(float64(i), float64(i*2))
	}
	out := RenderSeries("curves", "x", []Series{s1, s2})
	for _, want := range []string{"curves", "one", "two", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
	if out := RenderSeries("", "x", nil); !strings.Contains(out, "x") {
		t.Error("empty series render broken")
	}
}
