package obs

import (
	"sort"
	"sync"
	"time"
)

// Bounds for the default ring: how many distinct traces are retained and
// how many spans one trace may accumulate before further spans are
// counted but dropped.
const (
	DefaultMaxTraces     = 256
	defaultSpansPerTrace = 512
)

// traceEntry is one trace's accumulated spans plus bookkeeping.
type traceEntry struct {
	id      string
	spans   []SpanData
	dropped uint64
}

// Ring is a bounded in-memory store of completed traces: spans are
// grouped by trace ID, and once the ring holds maxTraces distinct traces
// the oldest (by first span arrival) is evicted to admit a new one. It is
// safe for concurrent use — workers record while /debug/traces reads.
type Ring struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	traces    map[string]*traceEntry
	order     []string // trace IDs by first arrival; front = next eviction
}

// NewRing builds a ring bounded to maxTraces traces (<= 0 selects
// DefaultMaxTraces).
func NewRing(maxTraces int) *Ring {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	return &Ring{
		maxTraces: maxTraces,
		maxSpans:  defaultSpansPerTrace,
		traces:    make(map[string]*traceEntry),
	}
}

// Record stores one completed span. Spans without a trace ID are dropped.
func (r *Ring) Record(d SpanData) {
	if d.TraceID == "" || r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.traces[d.TraceID]
	if e == nil {
		e = &traceEntry{id: d.TraceID}
		r.traces[d.TraceID] = e
		r.order = append(r.order, d.TraceID)
		for len(r.traces) > r.maxTraces && len(r.order) > 0 {
			oldest := r.order[0]
			r.order = r.order[1:]
			delete(r.traces, oldest)
		}
	}
	if len(e.spans) >= r.maxSpans {
		e.dropped++
		return
	}
	// Every span of the entry carries the entry's trace ID: share the
	// string, so a span decoded from a remote report holds no copy.
	d.TraceID = e.id
	e.spans = appendTight(e.spans, d)
}

// RecordAll stores a batch of spans (a remote backend's report-back).
func (r *Ring) RecordAll(spans []SpanData) {
	for _, d := range spans {
		r.Record(d)
	}
}

// Len reports how many traces the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traces)
}

// TraceSummary is one row of the trace listing.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// Root is the name of the first parentless span (or the earliest span
	// when every span has a parent — e.g. a backend's slice of a
	// coordinator trace).
	Root string `json:"root"`
	// Spans counts retained spans; Dropped counts spans beyond the
	// per-trace cap.
	Spans   int    `json:"spans"`
	Dropped uint64 `json:"dropped,omitempty"`
	// Start is the earliest span start; DurationMS spans to the latest end.
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
}

// Traces lists the retained traces, newest first.
func (r *Ring) Traces() []TraceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.traces))
	for i := len(r.order) - 1; i >= 0; i-- {
		e, ok := r.traces[r.order[i]]
		if !ok || len(e.spans) == 0 {
			continue
		}
		out = append(out, summarize(e))
	}
	return out
}

func summarize(e *traceEntry) TraceSummary {
	s := TraceSummary{TraceID: e.id, Spans: len(e.spans), Dropped: e.dropped}
	var latest time.Time
	for i, sp := range e.spans {
		if i == 0 || sp.Start.Before(s.Start) {
			s.Start = sp.Start
		}
		if sp.End.After(latest) {
			latest = sp.End
		}
		if s.Root == "" && sp.ParentID == "" {
			s.Root = sp.Name
		}
	}
	if s.Root == "" {
		s.Root = e.spans[0].Name
	}
	if latest.After(s.Start) {
		s.DurationMS = float64(latest.Sub(s.Start)) / float64(time.Millisecond)
	}
	return s
}

// Trace returns one trace's spans (unordered) and whether it exists.
func (r *Ring) Trace(id string) ([]SpanData, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.traces[id]
	if !ok {
		return nil, false
	}
	return append([]SpanData(nil), e.spans...), true
}

// SpanNode is one node of an assembled span tree.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildTree assembles spans into parent/child trees. Spans whose parent
// is absent (the trace root, or a slice of a trace whose upper spans live
// elsewhere) become roots. Siblings are ordered by start time, ties by
// span ID, so the tree is stable for equal inputs.
func BuildTree(spans []SpanData) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(spans))
	for _, d := range spans {
		nodes[d.SpanID] = &SpanNode{SpanData: d}
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if parent, ok := nodes[n.ParentID]; ok && n.ParentID != n.SpanID {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*SpanNode)
	sortNodes = func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].SpanID < ns[j].SpanID
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

// Walk visits every node of the trees in depth-first order, passing each
// node's depth (roots are depth 0).
func Walk(roots []*SpanNode, visit func(n *SpanNode, depth int)) {
	var rec func(n *SpanNode, depth int)
	rec = func(n *SpanNode, depth int) {
		visit(n, depth)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	for _, n := range roots {
		rec(n, 0)
	}
}
