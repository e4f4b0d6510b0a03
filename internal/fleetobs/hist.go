package fleetobs

import (
	"math"
	"sort"
)

// Hist is one histogram series reassembled from its _bucket/_sum/_count
// samples: cumulative counts per ascending upper bound (+Inf last, when
// present), plus the family's exemplar if the exposition carried one.
type Hist struct {
	UpperBounds []float64
	CumCounts   []float64
	Sum         float64
	Count       float64

	// ExemplarTrace/ExemplarValue identify the slowest recent
	// observation the producing backend attached to this family.
	ExemplarTrace string
	ExemplarValue float64
}

// Clone deep-copies the histogram.
func (h *Hist) Clone() *Hist {
	if h == nil {
		return nil
	}
	c := *h
	c.UpperBounds = append([]float64(nil), h.UpperBounds...)
	c.CumCounts = append([]float64(nil), h.CumCounts...)
	return &c
}

// perBucket expands the cumulative counts into per-bucket increments
// keyed by upper bound. Negative increments (malformed input) clamp to
// zero.
func (h *Hist) perBucket() map[float64]float64 {
	m := make(map[float64]float64, len(h.UpperBounds))
	prev := 0.0
	for i, ub := range h.UpperBounds {
		d := h.CumCounts[i] - prev
		if d < 0 {
			d = 0
		}
		m[ub] += d
		prev = h.CumCounts[i]
	}
	return m
}

// fromPerBucket rebuilds a histogram from per-bucket increments.
func fromPerBucket(m map[float64]float64, sum, count float64) *Hist {
	ubs := make([]float64, 0, len(m))
	for ub := range m {
		ubs = append(ubs, ub)
	}
	sort.Float64s(ubs)
	h := &Hist{UpperBounds: ubs, CumCounts: make([]float64, len(ubs)), Sum: sum, Count: count}
	cum := 0.0
	for i, ub := range ubs {
		cum += m[ub]
		h.CumCounts[i] = cum
	}
	return h
}

// Delta returns the histogram of observations recorded between prev and
// h — the windowed view a scrape pair yields from cumulative counters.
// Buckets are aligned by upper bound; negative deltas (a counter reset,
// i.e. a restarted backend) clamp to zero rather than poisoning rates.
// A nil prev returns a clone of h. The newer histogram's exemplar is
// kept: it describes a recent observation by construction.
func (h *Hist) Delta(prev *Hist) *Hist {
	if h == nil {
		return nil
	}
	if prev == nil {
		return h.Clone()
	}
	if h.Count < prev.Count || h.Sum < prev.Sum {
		// Counter reset (backend restart): everything the restarted
		// process has counted happened after prev, so the current
		// totals are the window.
		return h.Clone()
	}
	cur, old := h.perBucket(), prev.perBucket()
	m := make(map[float64]float64, len(cur))
	for ub, c := range cur {
		d := c - old[ub]
		if d < 0 {
			d = 0
		}
		m[ub] = d
	}
	// Bounds only the old scrape knew (shrunk layout after a restart)
	// contribute zero but keep the bucket grid stable.
	for ub := range old {
		if _, ok := m[ub]; !ok {
			m[ub] = 0
		}
	}
	out := fromPerBucket(m, h.Sum-prev.Sum, h.Count-prev.Count)
	out.ExemplarTrace, out.ExemplarValue = h.ExemplarTrace, h.ExemplarValue
	return out
}

// Merge folds other into h by upper-bound union — how per-backend (or
// per-kind) histograms combine into a fleet-level one. The exemplar with
// the larger value wins, so the merged histogram still points at the
// slowest recent observation fleet-wide.
func (h *Hist) Merge(other *Hist) *Hist {
	if h == nil {
		return other.Clone()
	}
	if other == nil {
		return h.Clone()
	}
	m := h.perBucket()
	for ub, c := range other.perBucket() {
		m[ub] += c
	}
	out := fromPerBucket(m, h.Sum+other.Sum, h.Count+other.Count)
	out.ExemplarTrace, out.ExemplarValue = h.ExemplarTrace, h.ExemplarValue
	if other.ExemplarTrace != "" && (out.ExemplarTrace == "" || other.ExemplarValue > out.ExemplarValue) {
		out.ExemplarTrace, out.ExemplarValue = other.ExemplarTrace, other.ExemplarValue
	}
	return out
}

// Quantile recovers the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing the rank, the same estimate Prometheus'
// histogram_quantile uses. Observations in the +Inf bucket report the
// highest finite bound (the histogram cannot see past it). Returns 0
// for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil || len(h.UpperBounds) == 0 {
		return 0
	}
	total := h.CumCounts[len(h.CumCounts)-1]
	if total <= 0 {
		return 0
	}
	rank := q * total
	lower, prevCum := 0.0, 0.0
	for i, ub := range h.UpperBounds {
		cum := h.CumCounts[i]
		if rank <= cum {
			if math.IsInf(ub, 1) {
				return lastFinite(h.UpperBounds)
			}
			in := cum - prevCum
			if in <= 0 {
				return ub
			}
			return lower + (rank-prevCum)/in*(ub-lower)
		}
		if !math.IsInf(ub, 1) {
			lower = ub
		}
		prevCum = cum
	}
	return lastFinite(h.UpperBounds)
}

func lastFinite(ubs []float64) float64 {
	for i := len(ubs) - 1; i >= 0; i-- {
		if !math.IsInf(ubs[i], 1) {
			return ubs[i]
		}
	}
	return 0
}
