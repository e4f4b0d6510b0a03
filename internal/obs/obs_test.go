package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestStartWithoutRingIsDisabled(t *testing.T) {
	ctx, span := Start(context.Background(), "op")
	if span != nil {
		t.Fatalf("span without a ring = %v, want nil", span)
	}
	// Every method on the disabled span must be a safe no-op.
	span.SetAttr("k", "v")
	span.SetError(errors.New("boom"))
	span.End()
	if sc := span.Context(); sc.Valid() {
		t.Errorf("disabled span has valid context %+v", sc)
	}
	if got := SpanFrom(ctx); got != nil {
		t.Errorf("SpanFrom after disabled Start = %v, want nil", got)
	}
	req, _ := http.NewRequest(http.MethodGet, "http://x/", nil)
	Inject(ctx, req)
	if req.Header.Get(TraceIDHeader) != "" {
		t.Error("Inject stamped headers without a live span")
	}
}

func TestSpanTreeParentage(t *testing.T) {
	ring := NewRing(8)
	ctx := WithRing(context.Background(), ring)
	ctx, root := Start(ctx, "root")
	root.SetAttr("kind", "test")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.SetError(errors.New("leaf failed"))
	grand.End()
	child.End()
	root.End()

	spans, ok := ring.Trace(root.Context().TraceID)
	if !ok || len(spans) != 3 {
		t.Fatalf("trace has %d spans (ok=%v), want 3", len(spans), ok)
	}
	tree := BuildTree(spans)
	if len(tree) != 1 || tree[0].Name != "root" {
		t.Fatalf("tree roots = %+v, want single root", tree)
	}
	if tree[0].Attrs["kind"] != "test" {
		t.Errorf("root attrs = %v", tree[0].Attrs)
	}
	if len(tree[0].Children) != 1 || tree[0].Children[0].Name != "child" {
		t.Fatalf("root children = %+v", tree[0].Children)
	}
	leaf := tree[0].Children[0].Children
	if len(leaf) != 1 || leaf[0].Name != "grandchild" || leaf[0].Error != "leaf failed" {
		t.Fatalf("grandchild = %+v", leaf)
	}
	var depths []int
	Walk(tree, func(n *SpanNode, depth int) { depths = append(depths, depth) })
	if fmt.Sprint(depths) != "[0 1 2]" {
		t.Errorf("walk depths = %v", depths)
	}
}

func TestHTTPPropagationRoundTrip(t *testing.T) {
	ring := NewRing(8)
	ctx := WithRing(context.Background(), ring)
	ctx, span := Start(ctx, "client-op")
	req, _ := http.NewRequest(http.MethodPost, "http://x/", nil)
	Inject(ctx, req)

	sc := Extract(req)
	if !sc.Valid() || sc != span.Context() {
		t.Fatalf("extracted %+v, want %+v", sc, span.Context())
	}

	// The "server side": a fresh context joins the propagated trace.
	serverRing := NewRing(8)
	sctx := WithRemoteParent(WithRing(context.Background(), serverRing), sc)
	_, remote := Start(sctx, "server-op")
	remote.End()
	span.End()

	data := remote.Data()
	if data.TraceID != span.Context().TraceID {
		t.Errorf("remote trace = %s, want %s", data.TraceID, span.Context().TraceID)
	}
	if data.ParentID != span.Context().SpanID {
		t.Errorf("remote parent = %s, want %s", data.ParentID, span.Context().SpanID)
	}

	// Report-back: record the remote span into the client's ring and the
	// tree assembles across the process boundary.
	RecordAll(ctx, []SpanData{data})
	spans, _ := ring.Trace(span.Context().TraceID)
	tree := BuildTree(spans)
	if len(tree) != 1 || len(tree[0].Children) != 1 || tree[0].Children[0].Name != "server-op" {
		t.Fatalf("cross-process tree = %+v", tree)
	}
}

func TestRingEvictsOldestTrace(t *testing.T) {
	ring := NewRing(2)
	mk := func(name string) string {
		ctx := WithRing(context.Background(), ring)
		_, s := Start(ctx, name)
		s.End()
		return s.Context().TraceID
	}
	t1, t2, t3 := mk("a"), mk("b"), mk("c")
	if ring.Len() != 2 {
		t.Fatalf("ring len = %d, want 2", ring.Len())
	}
	if _, ok := ring.Trace(t1); ok {
		t.Error("oldest trace survived eviction")
	}
	for _, id := range []string{t2, t3} {
		if _, ok := ring.Trace(id); !ok {
			t.Errorf("trace %s missing", id)
		}
	}
	traces := ring.Traces()
	if len(traces) != 2 || traces[0].TraceID != t3 {
		t.Errorf("Traces() = %+v, want newest first", traces)
	}
	if traces[0].Root != "c" || traces[0].Spans != 1 {
		t.Errorf("summary = %+v", traces[0])
	}
}

// TestDefaultRingBoundsSoak records four rings' worth of traces into a
// default ring, one of them with twice the per-trace span cap. The ring
// must hold exactly DefaultMaxTraces traces, the newest ones, and the big
// trace must keep defaultSpansPerTrace spans and count the rest as dropped.
func TestDefaultRingBoundsSoak(t *testing.T) {
	const total, big, bigSpans = 4 * DefaultMaxTraces, 4*DefaultMaxTraces - 10, 1024
	ring := NewRing(0)
	id := func(i int) string { return fmt.Sprintf("trace-%04d", i) }
	now := time.Now()
	for i := 0; i < total; i++ {
		n := 1
		if i == big {
			n = bigSpans
		}
		for j := 0; j < n; j++ {
			ring.Record(SpanData{TraceID: id(i), SpanID: fmt.Sprintf("span-%04d", j), Name: "op", Start: now, End: now})
		}
	}
	if got := ring.Len(); got != DefaultMaxTraces {
		t.Fatalf("ring len = %d, want %d", got, DefaultMaxTraces)
	}
	for i := 0; i < total; i++ {
		if _, ok := ring.Trace(id(i)); ok != (i >= total-DefaultMaxTraces) {
			t.Fatalf("trace %d retained = %v; want only the newest %d", i, ok, DefaultMaxTraces)
		}
	}
	if spans, _ := ring.Trace(id(big)); len(spans) != defaultSpansPerTrace {
		t.Errorf("big trace kept %d spans, want %d", len(spans), defaultSpansPerTrace)
	}
	for _, sum := range ring.Traces() {
		if sum.TraceID == id(big) && (sum.Spans != defaultSpansPerTrace || sum.Dropped != bigSpans-defaultSpansPerTrace) {
			t.Errorf("big trace summary: %d spans, %d dropped; want %d and %d",
				sum.Spans, sum.Dropped, defaultSpansPerTrace, bigSpans-defaultSpansPerTrace)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	ring := NewRing(4)
	_, s := Start(WithRing(context.Background(), ring), "once")
	s.End()
	s.End()
	spans, _ := ring.Trace(s.Context().TraceID)
	if len(spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(spans))
	}
}

func TestTimelineBoundsAndFields(t *testing.T) {
	tl := NewTimeline(8)
	tl.Add("queued", "job accepted", "job_id", "j1")
	for i := 0; i < 20; i++ {
		tl.Add("progress", "", "pct", fmt.Sprint(i))
	}
	tl.Add("done", "finished")
	evs := tl.Events()
	if len(evs) > 8 {
		t.Fatalf("timeline grew to %d events, cap 8", len(evs))
	}
	if tl.Dropped() == 0 {
		t.Error("no drops counted despite overflow")
	}
	if last := evs[len(evs)-1]; last.Type != "done" {
		t.Errorf("last event = %+v, want the terminal one", last)
	}
	if evs[0].Time.After(evs[len(evs)-1].Time) {
		t.Error("events out of order")
	}

	var nilTL *Timeline
	nilTL.Add("x", "")
	if nilTL.Events() != nil || nilTL.Dropped() != 0 {
		t.Error("nil timeline not a no-op")
	}
}

func TestTimelineRestore(t *testing.T) {
	tl := NewTimeline(4)
	events := make([]Event, 10)
	for i := range events {
		events[i] = Event{Time: time.Unix(int64(i), 0), Type: fmt.Sprintf("t%d", i)}
	}
	tl.Restore(events)
	got := tl.Events()
	if len(got) != 4 || got[0].Type != "t6" || got[3].Type != "t9" {
		t.Fatalf("restored = %+v, want the newest 4", got)
	}
	if tl.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tl.Dropped())
	}
}

func TestLoggerHelpers(t *testing.T) {
	// Context without a logger: silent, not nil.
	Logger(context.Background()).Info("dropped")

	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithLogger(context.Background(), l.With("trace_id", "abc"))
	Logger(ctx).Info("hello", "k", "v")
	out := buf.String()
	for _, want := range []string{`"msg":"hello"`, `"trace_id":"abc"`, `"k":"v"`} {
		if !strings.Contains(out, want) {
			t.Errorf("log output %q missing %q", out, want)
		}
	}
	if _, err := NewLogger(&buf, "yaml", nil); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestBuildTreeOrphanBecomesRoot(t *testing.T) {
	spans := []SpanData{
		{TraceID: "t", SpanID: "b", ParentID: "missing", Name: "orphan", Start: time.Unix(2, 0)},
		{TraceID: "t", SpanID: "a", Name: "root", Start: time.Unix(1, 0)},
	}
	tree := BuildTree(spans)
	if len(tree) != 2 || tree[0].Name != "root" || tree[1].Name != "orphan" {
		t.Fatalf("tree = %+v, want root then orphan by start time", tree)
	}
}
