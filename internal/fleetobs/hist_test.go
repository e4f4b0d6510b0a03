package fleetobs

import (
	"math"
	"testing"
)

// mkHist builds a histogram from (upperBound, cumulativeCount) pairs.
func mkHist(t *testing.T, pairs ...float64) *Hist {
	t.Helper()
	if len(pairs)%2 != 0 {
		t.Fatal("mkHist wants ub,count pairs")
	}
	h := &Hist{}
	for i := 0; i < len(pairs); i += 2 {
		h.UpperBounds = append(h.UpperBounds, pairs[i])
		h.CumCounts = append(h.CumCounts, pairs[i+1])
	}
	if n := len(h.CumCounts); n > 0 {
		h.Count = h.CumCounts[n-1]
	}
	return h
}

func TestHistQuantile(t *testing.T) {
	inf := math.Inf(1)
	// 10 observations: 5 in (0,0.1], 4 in (0.1,1], 1 in (1,+Inf].
	h := mkHist(t, 0.1, 5, 1, 9, inf, 10)
	if got := h.Quantile(0.5); got != 0.1 {
		t.Fatalf("p50 = %g, want 0.1 (rank at bucket edge)", got)
	}
	// rank 9 falls exactly at the end of the second bucket.
	if got := h.Quantile(0.9); math.Abs(got-1) > 1e-9 {
		t.Fatalf("p90 = %g, want 1", got)
	}
	// rank 9.9 lands in +Inf: report the last finite bound.
	if got := h.Quantile(0.99); got != 1 {
		t.Fatalf("p99 = %g, want 1 (clamped to last finite bound)", got)
	}
	// Interpolation inside the second bucket: rank 7 is halfway through
	// its 4 observations -> 0.1 + (7-5)/4 * 0.9.
	if got, want := h.Quantile(0.7), 0.1+(2.0/4.0)*0.9; math.Abs(got-want) > 1e-9 {
		t.Fatalf("p70 = %g, want %g", got, want)
	}
	if got := (&Hist{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
}

func TestHistDelta(t *testing.T) {
	inf := math.Inf(1)
	prev := mkHist(t, 0.1, 5, inf, 6)
	prev.Sum, prev.Count = 1.5, 6
	cur := mkHist(t, 0.1, 8, inf, 10)
	cur.Sum, cur.Count = 4.5, 10
	cur.ExemplarTrace, cur.ExemplarValue = "tr", 2.0

	d := cur.Delta(prev)
	if d.Count != 4 || math.Abs(d.Sum-3) > 1e-9 {
		t.Fatalf("delta count/sum = %g/%g, want 4/3", d.Count, d.Sum)
	}
	// 3 new obs <= 0.1, 1 new in +Inf.
	if d.CumCounts[0] != 3 || d.CumCounts[1] != 4 {
		t.Fatalf("delta cum counts = %v, want [3 4]", d.CumCounts)
	}
	if d.ExemplarTrace != "tr" {
		t.Fatalf("delta should keep the newer exemplar, got %q", d.ExemplarTrace)
	}

	// Counter reset: current counts below previous clamp to zero.
	reset := mkHist(t, 0.1, 1, inf, 1)
	reset.Sum, reset.Count = 0.05, 1
	d = reset.Delta(cur)
	if d.CumCounts[len(d.CumCounts)-1] != 1 || d.Count != 1 {
		t.Fatalf("reset delta should fall back to current totals, got %+v", d)
	}

	if got := cur.Delta(nil); got.Count != cur.Count {
		t.Fatalf("delta against nil should clone, got count %g", got.Count)
	}
}

func TestHistMerge(t *testing.T) {
	inf := math.Inf(1)
	a := mkHist(t, 0.1, 2, 1, 4, inf, 5)
	a.Sum = 2
	a.ExemplarTrace, a.ExemplarValue = "a", 1.0
	// Different bucket layout: merge must union the bounds.
	b := mkHist(t, 0.5, 3, inf, 3)
	b.Sum = 0.9
	b.ExemplarTrace, b.ExemplarValue = "b", 3.0

	m := a.Merge(b)
	if m.Count != 8 || math.Abs(m.Sum-2.9) > 1e-9 {
		t.Fatalf("merged count/sum = %g/%g, want 8/2.9", m.Count, m.Sum)
	}
	wantUBs := []float64{0.1, 0.5, 1, inf}
	if len(m.UpperBounds) != len(wantUBs) {
		t.Fatalf("merged bounds %v, want %v", m.UpperBounds, wantUBs)
	}
	for i, ub := range wantUBs {
		if m.UpperBounds[i] != ub {
			t.Fatalf("merged bounds %v, want %v", m.UpperBounds, wantUBs)
		}
	}
	// Cumulative after union: 0.1->2, 0.5->2+3, 1->2+3+2, Inf->8.
	want := []float64{2, 5, 7, 8}
	for i := range want {
		if m.CumCounts[i] != want[i] {
			t.Fatalf("merged cum %v, want %v", m.CumCounts, want)
		}
	}
	if m.ExemplarTrace != "b" {
		t.Fatalf("merge should keep the slowest exemplar, got %q", m.ExemplarTrace)
	}

	var none *Hist
	if got := none.Merge(a).Merge(nil); got.Count != a.Count {
		t.Fatalf("merge with nils = %+v", got)
	}
}
