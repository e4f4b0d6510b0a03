package pcmclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryAfterParsing pins both RFC 9110 Retry-After forms: delta
// seconds and an HTTP-date, with absent, malformed, zero, negative, and
// already-past values all degrading to "no hint".
func TestRetryAfterParsing(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name   string
		header string
		want   time.Duration
	}{
		{"absent", "", 0},
		{"delta seconds", "3", 3 * time.Second},
		{"delta with spaces", "  7 ", 7 * time.Second},
		{"zero seconds", "0", 0},
		{"negative seconds", "-5", 0},
		{"http date in the future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date in the past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"http date now", now.Format(http.TimeFormat), 0},
		{"malformed", "soon", 0},
		{"fractional seconds rejected", "1.5", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := &http.Response{Header: http.Header{}}
			if tc.header != "" {
				resp.Header.Set("Retry-After", tc.header)
			}
			if got := retryAfter(resp, now); got != tc.want {
				t.Fatalf("retryAfter(%q) = %v, want %v", tc.header, got, tc.want)
			}
		})
	}
	if got := retryAfter(nil, now); got != 0 {
		t.Fatalf("retryAfter(nil) = %v, want 0", got)
	}
}

// TestRetryAfterClampedToMaxBackoff checks a huge server hint cannot
// park the client: the sleep is bounded by MaxBackoff.
func TestRetryAfterClampedToMaxBackoff(t *testing.T) {
	ts, _ := newFlaky(1, "3600", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(Job{ID: "j1", State: StateQueued})
	})
	defer ts.Close()

	c := New(ts.URL)
	c.MaxBackoff = 250 * time.Millisecond
	delays := instrument(c)
	if _, err := c.Submit(context.Background(), KindCompression, nil); err != nil {
		t.Fatal(err)
	}
	if len(*delays) != 1 || (*delays)[0] > 250*time.Millisecond {
		t.Fatalf("hour-long Retry-After not clamped: slept %v, want <= 250ms", *delays)
	}
}

// TestRetryAfterHTTPDateHonored checks the date form steers the backoff
// like the integer form does.
func TestRetryAfterHTTPDateHonored(t *testing.T) {
	date := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	ts, _ := newFlaky(1, date, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(Job{ID: "j1", State: StateQueued})
	})
	defer ts.Close()

	c := New(ts.URL)
	delays := instrument(c)
	if _, err := c.Submit(context.Background(), KindCompression, nil); err != nil {
		t.Fatal(err)
	}
	// The date truncates to whole seconds, so the observed hint is a bit
	// under 2s; it must still beat the 50-100ms first backoff.
	if len(*delays) != 1 || (*delays)[0] < 900*time.Millisecond {
		t.Fatalf("HTTP-date Retry-After ignored: slept %v, want ~2s", *delays)
	}
}

// TestRetryOn429 checks a tenant-quota 429 is transient: the client
// backs off (honoring Retry-After) and the resubmission succeeds.
func TestRetryOn429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "tenant \"alice\" submission quota exhausted, retry in 2s"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(Job{ID: "j1", State: StateQueued})
	}))
	defer ts.Close()

	c := New(ts.URL)
	delays := instrument(c)
	j, err := c.Submit(context.Background(), KindCompression, nil)
	if err != nil {
		t.Fatalf("submit after 429: %v", err)
	}
	if j.ID != "j1" {
		t.Fatalf("job = %+v", j)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	if len(*delays) != 1 || (*delays)[0] < 2*time.Second {
		t.Fatalf("429 Retry-After ignored: slept %v, want >= 2s", *delays)
	}
}

// sseHandler writes canned SSE frames for one job and serves the poll
// endpoint Watch uses for the final document.
func sseJobServer(t *testing.T, onStream func(conn int, r *http.Request, w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		onStream(int(conns.Add(1)), r, w)
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Job{ID: "j1", State: StateDone, Result: json.RawMessage(`{"ok":true}`)})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &conns
}

// TestWatchStreamsToTerminal checks the SSE consumer: frames parse in
// order (ignoring heartbeat comments), the terminal frame ends the
// stream, and Watch returns the polled final document.
func TestWatchStreamsToTerminal(t *testing.T) {
	ts, conns := sseJobServer(t, func(conn int, r *http.Request, w http.ResponseWriter) {
		fmt.Fprint(w, ": heartbeat\n\n")
		fmt.Fprint(w, "id: 1\nevent: queued\ndata: {\"type\":\"queued\"}\n\n")
		fmt.Fprint(w, "id: 2\nevent: started\ndata: {\"type\":\"started\"}\n\n")
		fmt.Fprint(w, "id: 3\nevent: done\ndata: {\"type\":\"done\"}\n\n")
	})

	c := New(ts.URL)
	var events []TimelineEvent
	j, err := c.Watch(context.Background(), "j1", func(ev TimelineEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if j.State != StateDone {
		t.Fatalf("final state = %s, want done", j.State)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("connections = %d, want 1", got)
	}
	if len(events) != 3 {
		t.Fatalf("events = %+v, want 3", events)
	}
	for i, want := range []string{"queued", "started", "done"} {
		if events[i].Type != want || events[i].Seq != uint64(i+1) {
			t.Fatalf("event %d = %+v, want type %s seq %d", i, events[i], want, i+1)
		}
	}
}

// TestWatchReconnectsWithLastEventID checks a dropped stream resumes:
// the second connection carries Last-Event-ID of the last seq seen, and
// the watch completes without replaying delivered events.
func TestWatchReconnectsWithLastEventID(t *testing.T) {
	var resumedFrom atomic.Value
	ts, conns := sseJobServer(t, func(conn int, r *http.Request, w http.ResponseWriter) {
		if conn == 1 {
			fmt.Fprint(w, "id: 1\nevent: queued\ndata: {\"type\":\"queued\"}\n\n")
			fmt.Fprint(w, "id: 2\nevent: started\ndata: {\"type\":\"started\"}\n\n")
			return // drop the connection without a terminal frame
		}
		resumedFrom.Store(r.Header.Get("Last-Event-ID"))
		fmt.Fprint(w, "id: 3\nevent: done\ndata: {\"type\":\"done\"}\n\n")
	})

	c := New(ts.URL)
	instrument(c) // no wall-clock sleeps between reconnects
	var events []TimelineEvent
	j, err := c.Watch(context.Background(), "j1", func(ev TimelineEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if j.State != StateDone {
		t.Fatalf("final state = %s, want done", j.State)
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("connections = %d, want 2", got)
	}
	if got, _ := resumedFrom.Load().(string); got != "2" {
		t.Fatalf("Last-Event-ID on reconnect = %q, want \"2\"", got)
	}
	if len(events) != 3 || events[2].Type != "done" || events[2].Seq != 3 {
		t.Fatalf("events = %+v", events)
	}
}

// TestWatchFailsFastOnMissingJob checks a 404 is not retried: watching a
// job that does not exist fails immediately.
func TestWatchFailsFastOnMissingJob(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "no such job"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	instrument(c)
	if _, err := c.Watch(context.Background(), "j404", nil); err == nil {
		t.Fatal("watch of a missing job succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (404 must not retry)", got)
	}
}

// TestUploadTraceRetriesAndResends checks that a trace upload shares the
// JSON calls' retry loop: a 503 is retried, every attempt resends the same
// bytes with the same headers, and an upload that never succeeds logs
// "retries exhausted".
func TestUploadTraceRetriesAndResends(t *testing.T) {
	data := []byte("PCMT\x01\x01\x07" + strings.Repeat("\xab", 64))
	type seen struct{ body, contentType, traceSource string }
	var mu sync.Mutex
	var reqs []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		reqs = append(reqs, seen{string(body), r.Header.Get("Content-Type"), r.Header.Get("X-Trace-Source")})
		first := len(reqs) == 1
		mu.Unlock()
		if first {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"trace":  TraceMeta{Digest: "sha256:00", Events: 1},
			"stored": true,
		})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.TraceSource = "http://coordinator.example"
	instrument(c)
	meta, stored, err := c.UploadTrace(context.Background(), data)
	if err != nil {
		t.Fatalf("upload after a 503: %v", err)
	}
	if !stored || meta.Digest != "sha256:00" {
		t.Fatalf("upload = %+v stored=%v", meta, stored)
	}
	if len(reqs) != 2 {
		t.Fatalf("server saw %d requests, want the 503 and one retry", len(reqs))
	}
	want := seen{string(data), "application/octet-stream", c.TraceSource}
	for i, got := range reqs {
		if got != want {
			t.Errorf("attempt %d sent %+q, want %+q", i+1, got, want)
		}
	}

	down, _ := newFlaky(1<<30, "", nil)
	defer down.Close()
	var logs bytes.Buffer
	c = New(down.URL)
	c.MaxRetries = 1
	c.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	instrument(c)
	if _, _, err := c.UploadTrace(context.Background(), data); err == nil {
		t.Fatal("upload to an always-503 server succeeded")
	}
	if !strings.Contains(logs.String(), "retries exhausted") {
		t.Errorf("exhausted upload logged no warning:\n%s", logs.String())
	}
}
