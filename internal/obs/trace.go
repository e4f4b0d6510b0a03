// Package obs is pcmd's dependency-free observability kit: Dapper-style
// span tracing with HTTP header propagation, a bounded in-memory ring of
// completed traces, per-job flight-recorder timelines, and log/slog
// context helpers. It deliberately uses only the standard library so the
// simulator core stays free of third-party observability SDKs.
//
// # Span model
//
// A trace is a tree of spans sharing one 16-byte trace ID. Each span has
// its own 8-byte span ID, an optional parent span ID, a name, start/end
// times, string attributes, and an error slot. Spans are created with
// Start, which reads the current span (or a remote parent extracted from
// the X-Pcmd-Trace-Id / X-Pcmd-Span-Id headers) from the context, and are
// finalized with End, which records them into the Ring carried by the
// same context. A context without a Ring produces disabled spans whose
// methods are no-ops, so library code can trace unconditionally.
//
// Trace context crosses process boundaries in two directions: outbound,
// Inject stamps the current span's IDs onto an *http.Request; inbound,
// Extract turns the request headers back into a remote parent. A job
// executed on a remote pcmd reports its spans back in the job document,
// and the caller re-records them locally (Ring.RecordAll), assembling a
// single tree that covers coordinator dispatch and remote execution.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"
)

// The propagation headers. A request carrying both joins the sender's
// trace; anything else starts a fresh one.
const (
	TraceIDHeader = "X-Pcmd-Trace-Id"
	SpanIDHeader  = "X-Pcmd-Span-Id"
)

// SpanContext identifies one span within one trace — the minimal unit of
// propagation.
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// SpanData is the immutable, JSON-serializable record of a completed
// span. It is what the Ring stores, what /debug/traces returns, and what
// a remote backend reports back in its job document.
type SpanData struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Attrs    Pairs     `json:"attrs,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// Duration is the span's wall-clock extent.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Span is a live, mutable span. The zero value and nil are disabled spans:
// every method is a safe no-op, so callers never need to branch on whether
// tracing is active.
type Span struct {
	mu    sync.Mutex
	data  SpanData
	ring  *Ring
	ended bool
}

// Context returns the span's propagation identity (zero for a disabled
// span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID}
}

// SetAttr sets one string attribute, replacing the value of a key
// already set. A no-op once the span has ended: the recorded span is
// immutable.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.data.Attrs.set(key, value)
	}
}

// SetError records the span's failure cause (nil clears nothing and is a
// no-op, so unconditional SetError(err) calls are safe). Like SetAttr, a
// no-op once the span has ended.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.data.Error = err.Error()
	}
}

// End finalizes the span and records it into its ring. Idempotent: only
// the first End records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = time.Now()
	data, ring := s.data, s.ring
	s.mu.Unlock()
	if ring != nil {
		ring.Record(data)
	}
}

// Data snapshots the span's record. Call after End for a complete record,
// which shares its attributes with the copy End recorded (an ended span
// never changes); before End the End time is zero and the attributes are
// copied.
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := s.data
	if !s.ended && cp.Attrs != nil {
		cp.Attrs = append(Pairs(nil), cp.Attrs...)
	}
	return cp
}

// context keys, unexported so only this package can install values.
type ctxKey int

const (
	ringKey ctxKey = iota
	spanKey
	remoteKey
	loggerKey
)

// WithRing installs the trace recorder; spans started from descendant
// contexts record into it when ended.
func WithRing(ctx context.Context, r *Ring) context.Context {
	return context.WithValue(ctx, ringKey, r)
}

// RingFrom returns the context's recorder, or nil when tracing is off.
func RingFrom(ctx context.Context) *Ring {
	r, _ := ctx.Value(ringKey).(*Ring)
	return r
}

// WithRemoteParent installs a propagated parent: the next Start becomes a
// child of the remote span instead of opening a new trace. A SpanContext
// with only a trace ID is accepted too — the next Start joins that trace
// as a root (used when a trace identity was assigned at submission but no
// parent span exists, e.g. a queued job created without inbound headers).
func WithRemoteParent(ctx context.Context, sc SpanContext) context.Context {
	if sc.TraceID == "" {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// RemoteParent returns the propagated parent installed by
// WithRemoteParent (zero when absent).
func RemoteParent(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(remoteKey).(SpanContext)
	return sc
}

// SpanFrom returns the context's current span (nil — a disabled span —
// when there is none).
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Start opens a span named name as a child of the context's current span,
// or of a propagated remote parent, or as a new trace root. The returned
// context carries the new span for further nesting. Without a Ring in the
// context the span is disabled (nil) and the context is returned as-is —
// tracing costs nothing when off.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	ring := RingFrom(ctx)
	if ring == nil {
		return ctx, nil
	}
	s := &Span{ring: ring}
	s.data.Name = name
	s.data.Start = time.Now()
	s.data.SpanID = newID(8)
	if parent := SpanFrom(ctx); parent != nil {
		pc := parent.Context()
		s.data.TraceID, s.data.ParentID = pc.TraceID, pc.SpanID
	} else if rp := RemoteParent(ctx); rp.TraceID != "" {
		s.data.TraceID, s.data.ParentID = rp.TraceID, rp.SpanID
	} else {
		s.data.TraceID = newID(16)
	}
	return context.WithValue(ctx, spanKey, s), s
}

// Inject stamps the current span's trace identity onto an outbound
// request. A context without a live span leaves the request untouched.
func Inject(ctx context.Context, req *http.Request) {
	sc := SpanFrom(ctx).Context()
	if !sc.Valid() {
		return
	}
	req.Header.Set(TraceIDHeader, sc.TraceID)
	req.Header.Set(SpanIDHeader, sc.SpanID)
}

// Extract reads the propagation headers from an inbound request (zero
// when the request carries no trace context).
func Extract(req *http.Request) SpanContext {
	return SpanContext{
		TraceID: req.Header.Get(TraceIDHeader),
		SpanID:  req.Header.Get(SpanIDHeader),
	}
}

// RecordAll re-records externally produced spans (a remote backend's
// report-back) into the context's ring. No-op when tracing is off.
func RecordAll(ctx context.Context, spans []SpanData) {
	if ring := RingFrom(ctx); ring != nil {
		ring.RecordAll(spans)
	}
}

// NewTraceID mints a fresh 16-byte trace identity. The server assigns one
// to every job at submission, so the job document can advertise its trace
// before the execution span exists.
func NewTraceID() string { return newID(16) }

// newID returns n random bytes as lowercase hex. crypto/rand keeps IDs
// collision-free across processes; tracing IDs never feed simulation
// results, so this randomness cannot perturb the determinism goldens.
func newID(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		// The platform CSPRNG failing is unrecoverable for the process
		// anyway; a constant ID at least keeps tracing non-fatal.
		return "0000000000000000"[:2*n]
	}
	return hex.EncodeToString(buf)
}
