// Package fleetobs is the coordinator-side fleet health plane: it
// periodically scrapes every backend's /metrics endpoint (its own
// included, via an in-process self-scrape), folds the samples into a
// rolling fleet snapshot — per-backend health, queue depth, windowed
// latency quantiles recovered from the cumulative histograms, error
// rates per job kind and HTTP route — over a fixed one-minute window,
// and publishes each snapshot on the plane's flight recorder.
//
// The package is dependency-free beyond the standard library and
// internal/obs: the exposition parser below understands the Prometheus
// text format internal/server emits (plus OpenMetrics-style exemplars)
// without importing any Prometheus library.
package fleetobs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Exemplar is an OpenMetrics exemplar attached to a sample — for this
// repo's histograms, the trace_id of the family's slowest recent
// observation, linking a quantile spike to /debug/traces/{id}.
type Exemplar struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

// Sample is one parsed exposition line: a metric name, its label set
// (nil when bare), the value, and an optional exemplar.
type Sample struct {
	Name     string
	Labels   map[string]string
	Value    float64
	Exemplar *Exemplar
}

// Label returns one label's value ("" when absent).
func (s *Sample) Label(key string) string { return s.Labels[key] }

// matches reports whether the sample carries every label in want with
// the wanted value (extra labels are fine; nil want matches anything).
func (s *Sample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// ParseExposition parses Prometheus text-exposition output into samples.
// Comment lines (# HELP, # TYPE, free comments) are skipped; escaping in
// label values (\\, \", \n) is decoded; +Inf/-Inf/NaN values and
// optional timestamps are accepted; an OpenMetrics exemplar suffix
// ("# {labels} value [ts]") is attached to its sample. A malformed
// sample line is an error carrying the 1-based line number.
func ParseExposition(data []byte) ([]Sample, error) {
	var out []Sample
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var row []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			row, data = data[:i], data[i+1:]
		} else {
			row, data = data, nil
		}
		line := strings.TrimRight(string(row), "\r")
		if strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimLeft(line, " \t"), "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("fleetobs: exposition line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// parseSampleLine parses one non-comment line:
//
//	name[{labels}] value [timestamp] [# {exemplar-labels} value [ts]]
func parseSampleLine(line string) (Sample, error) {
	name, rest, err := scanName(strings.TrimLeft(line, " \t"))
	if err != nil {
		return Sample{}, err
	}
	var labels map[string]string
	rest = strings.TrimLeft(rest, " \t")
	if strings.HasPrefix(rest, "{") {
		labels, rest, err = scanLabels(rest[1:])
		if err != nil {
			return Sample{}, err
		}
	}
	var ex *Exemplar
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		exPart := strings.TrimLeft(rest[i+1:], " \t")
		rest = rest[:i]
		if ex, err = parseExemplar(exPart); err != nil {
			return Sample{}, err
		}
	}
	value, err := parseValueTimestamp(rest)
	if err != nil {
		return Sample{}, err
	}
	return Sample{Name: name, Labels: labels, Value: value, Exemplar: ex}, nil
}

// parseValueTimestamp parses "value [timestamp]", discarding the
// timestamp.
func parseValueTimestamp(s string) (float64, error) {
	fields := strings.Fields(s)
	switch len(fields) {
	case 1:
	case 2:
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	default:
		return 0, fmt.Errorf("expected value [timestamp], got %q", strings.TrimSpace(s))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", fields[0])
	}
	return v, nil
}

// parseExemplar parses the part after the '#' marker: "{labels} value [ts]".
func parseExemplar(s string) (*Exemplar, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("exemplar must start with a label block, got %q", s)
	}
	labels, rest, err := scanLabels(s[1:])
	if err != nil {
		return nil, fmt.Errorf("exemplar: %w", err)
	}
	v, err := parseValueTimestamp(rest)
	if err != nil {
		return nil, fmt.Errorf("exemplar: %w", err)
	}
	return &Exemplar{Labels: labels, Value: v}, nil
}

// scanName consumes a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*).
func scanName(s string) (name, rest string, err error) {
	i := 0
	for i < len(s) && isNameChar(s[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", "", fmt.Errorf("missing metric name in %q", s)
	}
	return s[:i], s[i:], nil
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// scanLabels parses a label block starting after its '{', returning the
// decoded pairs and everything after the closing '}'.
func scanLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return nil, "", errors.New("unterminated label block")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		if s[0] == ',' {
			s = s[1:]
			continue
		}
		i := 0
		for i < len(s) && isLabelChar(s[i], i == 0) {
			i++
		}
		if i == 0 {
			return nil, "", fmt.Errorf("bad label name at %q", clip(s))
		}
		key := s[:i]
		s = s[i:]
		if !strings.HasPrefix(s, `="`) {
			return nil, "", fmt.Errorf("label %s must be followed by =\"...\"", key)
		}
		val, rest, err := scanQuoted(s[2:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", key, err)
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", key)
		}
		labels[key] = val
		s = rest
	}
}

func isLabelChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// scanQuoted decodes a quoted label value starting after its opening
// quote: \\ -> backslash, \" -> quote, \n -> newline; any other escape
// is an error, matching the exposition-format spec.
func scanQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", errors.New("dangling escape in label value")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c in label value", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", errors.New("unterminated label value")
}

// clip bounds an error-context string.
func clip(s string) string {
	if len(s) > 20 {
		return s[:20] + "..."
	}
	return s
}

// SumOf totals every sample of one family whose labels include want.
func SumOf(samples []Sample, name string, want map[string]string) float64 {
	var sum float64
	for i := range samples {
		if samples[i].Name == name && samples[i].matches(want) {
			sum += samples[i].Value
		}
	}
	return sum
}

// GaugeOf returns the first matching sample's value.
func GaugeOf(samples []Sample, name string, want map[string]string) (float64, bool) {
	for i := range samples {
		if samples[i].Name == name && samples[i].matches(want) {
			return samples[i].Value, true
		}
	}
	return 0, false
}

// LabeledHist pairs one reassembled histogram series with its label set
// (minus le).
type LabeledHist struct {
	Labels map[string]string
	Hist   *Hist
}

// HistogramsOf reassembles a histogram family from its _bucket, _sum,
// and _count samples, grouped by their non-le label sets, in order of
// first appearance. Buckets are sorted by upper bound; a trace_id
// exemplar on any bucket is surfaced on the histogram.
func HistogramsOf(samples []Sample, family string) []LabeledHist {
	type acc struct {
		labels  map[string]string
		les     []float64
		cums    []float64
		sum     float64
		count   float64
		exTrace string
		exVal   float64
	}
	byKey := make(map[string]*acc)
	var order []string
	get := func(labels map[string]string) *acc {
		non := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				non[k] = v
			}
		}
		key := labelKey(non)
		a := byKey[key]
		if a == nil {
			a = &acc{labels: non}
			byKey[key] = a
			order = append(order, key)
		}
		return a
	}
	for i := range samples {
		s := &samples[i]
		switch s.Name {
		case family + "_bucket":
			le, err := parseLE(s.Label("le"))
			if err != nil {
				continue
			}
			a := get(s.Labels)
			a.les = append(a.les, le)
			a.cums = append(a.cums, s.Value)
			if s.Exemplar != nil {
				if tid := s.Exemplar.Labels["trace_id"]; tid != "" && s.Exemplar.Value >= a.exVal {
					a.exTrace, a.exVal = tid, s.Exemplar.Value
				}
			}
		case family + "_sum":
			get(s.Labels).sum = s.Value
		case family + "_count":
			get(s.Labels).count = s.Value
		}
	}
	out := make([]LabeledHist, 0, len(order))
	for _, key := range order {
		a := byKey[key]
		h := &Hist{
			Sum: a.sum, Count: a.count,
			ExemplarTrace: a.exTrace, ExemplarValue: a.exVal,
		}
		idx := make([]int, len(a.les))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return a.les[idx[i]] < a.les[idx[j]] })
		for _, i := range idx {
			h.UpperBounds = append(h.UpperBounds, a.les[i])
			h.CumCounts = append(h.CumCounts, a.cums[i])
		}
		out = append(out, LabeledHist{Labels: a.labels, Hist: h})
	}
	return out
}

func parseLE(s string) (float64, error) {
	if s == "" {
		return 0, errors.New("bucket without le")
	}
	return strconv.ParseFloat(s, 64)
}

// labelKey serializes a label set canonically (sorted keys).
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(1)
		b.WriteString(labels[k])
		b.WriteByte(2)
	}
	return b.String()
}
