// Package stats provides the small statistical toolkit used to aggregate and
// report simulation results: integer histograms with CDF and percentile
// queries, running summary statistics, and plain-text table/series
// rendering for regenerating the paper's figures on a terminal.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Running accumulates streaming summary statistics (count, mean, variance,
// min, max) using Welford's online algorithm. The zero value is ready to use.
type Running struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the arithmetic mean (0 for an empty accumulator).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance (0 if fewer than 2 observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Min returns the smallest observation (0 if empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 if empty).
func (r *Running) Max() float64 { return r.max }

// Histogram counts integer-valued observations in [0, buckets).
// Out-of-range observations are clamped to the nearest edge bucket.
type Histogram struct {
	counts []int64
	total  int64
}

// NewHistogram creates a histogram with the given number of buckets.
func NewHistogram(buckets int) *Histogram {
	return &Histogram{counts: make([]int64, buckets)}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.total++
}

// Count returns the number of observations in bucket v, or 0 when v is
// outside [0, Buckets()) — Add clamps out-of-range values into the edge
// buckets, so an out-of-range query means "no bucket", not a panic.
func (h *Histogram) Count(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Total returns the total number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Mean returns the mean bucket value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// CDF returns the fraction of observations with value <= v: 0 below the
// first bucket, 1 at or above the last.
func (h *Histogram) CDF(v int) float64 {
	if h.total == 0 || v < 0 {
		return 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	var cum int64
	for i := 0; i <= v; i++ {
		cum += h.counts[i]
	}
	return float64(cum) / float64(h.total)
}

// Percentile returns the smallest bucket value v such that CDF(v) >= p,
// for p in (0, 1].
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(h.total)))
	var cum int64
	for v, c := range h.counts {
		cum += c
		if cum >= target {
			return v
		}
	}
	return len(h.counts) - 1
}

// Table renders labeled rows of float columns as an aligned plain-text table,
// the format used by cmd/figures to reproduce the paper's tables.
type Table struct {
	Title   string
	Columns []string
	rows    []tableRow
}

type tableRow struct {
	label  string
	values []float64
}

// AddRow appends one labeled row. The number of values should equal the
// number of columns.
func (t *Table) AddRow(label string, values ...float64) {
	vals := make([]float64, len(values))
	copy(vals, values)
	t.rows = append(t.rows, tableRow{label: label, values: vals})
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Value returns the cell at (row, col).
func (t *Table) Value(row, col int) float64 { return t.rows[row].values[col] }

// Label returns the label of the given row.
func (t *Table) Label(row int) string { return t.rows[row].label }

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	labelW := 12
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	fmt.Fprintf(&sb, "%-*s", labelW+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, "%14s", c)
	}
	sb.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&sb, "%-*s", labelW+2, r.label)
		for _, v := range r.values {
			fmt.Fprintf(&sb, "%14s", formatCell(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func formatCell(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e7:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	case av >= 0.01 || v == 0:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// Series is a named sequence of (x, y) points, used for figure curves.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// RenderSeries renders a set of series that share the same X values as an
// aligned plain-text block (one column per series).
func RenderSeries(title, xLabel string, series []Series) string {
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title)
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&sb, "%14s", s.Name)
	}
	sb.WriteByte('\n')
	if len(series) == 0 {
		return sb.String()
	}
	for i := range series[0].X {
		fmt.Fprintf(&sb, "%12s", formatCell(series[0].X[i]))
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&sb, "%14s", formatCell(s.Y[i]))
			} else {
				fmt.Fprintf(&sb, "%14s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
