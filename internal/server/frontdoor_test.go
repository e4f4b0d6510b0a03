package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pcmcomp/internal/obs"
	"pcmcomp/internal/pcmclient"
	"pcmcomp/internal/tenant"
)

// panicParams is a job whose exec panics: the regression fixture for the
// worker-recovery path.
type panicParams struct{}

func (p *panicParams) normalize() error { return nil }
func (p *panicParams) run(context.Context, *jobProgress) (any, error) {
	panic("kaboom: synthetic exec panic")
}

// noteParams records its tenant label into a shared completion log the
// instant it runs — the fairness probe.
type noteParams struct {
	label string
	mu    *sync.Mutex
	order *[]string
}

func (p *noteParams) normalize() error { return nil }
func (p *noteParams) run(context.Context, *jobProgress) (any, error) {
	p.mu.Lock()
	*p.order = append(*p.order, p.label)
	p.mu.Unlock()
	return p.label, nil
}

// TestServerPanicRecoveryKeepsWorkerAlive pins the panic satellite: a
// panic escaping a job's exec must not take down the daemon. The job
// lands failed with the panic cause, the worker slot survives to run
// the next job, and the panic is counted in /metrics.
func TestServerPanicRecoveryKeepsWorkerAlive(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, JobTimeout: time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()

	j := s.store.add(KindLifetime, &panicParams{}, "panic-fixture-0001", nil, time.Now())
	if res := s.pool.Submit(j); res != submitOK {
		t.Fatalf("submit panicking job: %v", res)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, ok := s.store.get(j.ID)
		if !ok {
			t.Fatal("panicking job vanished from the store")
		}
		if snap.State.Terminal() {
			if snap.State != StateFailed {
				t.Fatalf("state = %s, want failed", snap.State)
			}
			if !strings.Contains(snap.Error, "panic in job execution") || !strings.Contains(snap.Error, "kaboom") {
				t.Fatalf("error = %q, want the panic cause", snap.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s — the worker may have died with the panic", snap.State)
		}
		time.Sleep(time.Millisecond)
	}

	// The single worker must still be alive: a real job completes.
	doc, code := submit(t, ts, "lifetime", `{"app": "milc", "scale": "quick", "systems": ["baseline"]}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("post-panic submit: %d (%v)", code, doc)
	}
	pollDone(t, ts, doc["id"].(string))

	metrics := fetchText(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "pcmd_job_panics_total 1") {
		t.Fatalf("metrics missing pcmd_job_panics_total 1:\n%s", metrics)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServerTwoTenantFairness is the two-tenant soak: alice floods the
// queue while bob submits a steady trickle. Deficit-round-robin must
// interleave them (bob's five jobs all finish within the first ten
// completions, where FIFO would park them behind alice's twenty), the
// token bucket must throttle only alice, and the tenant path must not
// change results: the same params produce byte-identical output
// submitted through a tenant queue or executed directly.
func TestServerTwoTenantFairness(t *testing.T) {
	reg, err := tenant.NewRegistry([]*tenant.Tenant{
		tenant.NewTenant("alice", "alice-key", 0.01, 2, 1),
		tenant.NewTenant("bob", "bob-key", 0, 0, 1),
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 64, CacheEntries: -1, JobTimeout: time.Minute, Tenants: reg})
	ts := httptest.NewServer(s)
	defer ts.Close()

	alice, _ := reg.Lookup("alice-key")
	bob, _ := reg.Lookup("bob-key")

	// Block the worker so both tenants' queues build up before anything
	// drains.
	release := make(chan struct{})
	blocker := s.store.add(KindLifetime, &blockParams{release: release}, "fair-blocker-00001", s.tenants.Anonymous(), time.Now())
	if s.pool.Submit(blocker) != submitOK {
		t.Fatal("blocker rejected")
	}
	for {
		if j, _ := s.store.get(blocker.ID); j.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var mu sync.Mutex
	var order []string
	const flood, steady = 20, 5
	jobs := make([]*Job, 0, flood+steady)
	for i := 0; i < flood; i++ {
		j := s.store.add(KindLifetime, &noteParams{label: "alice", mu: &mu, order: &order},
			fmt.Sprintf("fair-alice-%06d", i), alice, time.Now())
		if s.pool.Submit(j) != submitOK {
			t.Fatalf("alice job %d rejected", i)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < steady; i++ {
		j := s.store.add(KindLifetime, &noteParams{label: "bob", mu: &mu, order: &order},
			fmt.Sprintf("fair-bob-%06d", i), bob, time.Now())
		if s.pool.Submit(j) != submitOK {
			t.Fatalf("bob job %d rejected", i)
		}
		jobs = append(jobs, j)
	}

	close(release)
	deadline := time.Now().Add(60 * time.Second)
	for _, j := range jobs {
		for {
			snap, _ := s.store.get(j.ID)
			if snap.State == StateDone {
				break
			}
			if snap.State.Terminal() {
				t.Fatalf("job %s (%s) ended %s: %s", j.ID, snap.Tenant, snap.State, snap.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", j.ID, snap.State)
			}
			time.Sleep(time.Millisecond)
		}
	}

	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	if len(got) != flood+steady {
		t.Fatalf("completions = %d, want %d", len(got), flood+steady)
	}
	bobsInFirst10 := 0
	lastBob := -1
	for i, label := range got {
		if label == "bob" {
			lastBob = i
			if i < 10 {
				bobsInFirst10++
			}
		}
	}
	if bobsInFirst10 != steady {
		t.Fatalf("fairness violated: only %d/%d bob jobs in the first 10 completions (order %v)",
			bobsInFirst10, steady, got)
	}
	if lastBob >= 10 {
		t.Fatalf("fairness violated: bob's last completion at index %d (order %v)", lastBob, got)
	}

	// Throttling hits only the flooding tenant: alice's bucket (1/s,
	// burst 2) refuses the third rapid submission with a Retry-After.
	body := `{"app": "milc", "scale": "quick", "systems": ["baseline"]}`
	var throttled *http.Response
	for i := 0; i < 3; i++ {
		resp := submitAs(t, ts, "alice-key", "lifetime", body)
		if resp.StatusCode == http.StatusTooManyRequests {
			throttled = resp
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if throttled == nil {
		t.Fatal("three rapid submissions over a burst of 2 never got a 429")
	}
	if ra := throttled.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	io.Copy(io.Discard, throttled.Body)
	throttled.Body.Close()

	bobResp := submitAs(t, ts, "bob-key", "lifetime", body)
	var bobDoc Job
	if err := json.NewDecoder(bobResp.Body).Decode(&bobDoc); err != nil {
		t.Fatal(err)
	}
	bobResp.Body.Close()
	if bobResp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob submission: %d, want 202", bobResp.StatusCode)
	}
	if bobDoc.Tenant != "bob" {
		t.Fatalf("job tenant = %q, want bob", bobDoc.Tenant)
	}

	metrics := fetchText(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, `pcmd_tenant_throttled_total{tenant="alice"} 1`) {
		t.Fatalf("metrics missing alice throttle:\n%s", metrics)
	}
	if !strings.Contains(metrics, `pcmd_tenant_throttled_total{tenant="bob"} 0`) {
		t.Fatalf("metrics missing bob zero-throttle line:\n%s", metrics)
	}

	// Byte-identical results: bob's tenant-queued job matches a direct,
	// tenant-less execution of the same params.
	final := pollRaw(t, ts, bobDoc.ID)
	direct, err := ExecuteLocal(context.Background(), KindLifetime, json.RawMessage(body))
	if err != nil {
		t.Fatal(err)
	}
	// The server pretty-prints response documents, so compact both sides
	// before the byte comparison.
	var viaTenant, viaDirect bytes.Buffer
	if err := json.Compact(&viaTenant, final.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&viaDirect, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaTenant.Bytes(), viaDirect.Bytes()) {
		t.Fatalf("tenant-queued result differs from direct execution:\n%s\nvs\n%s", viaTenant.Bytes(), viaDirect.Bytes())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServerSSEStreamAndRelease covers the streaming satellite end to
// end: a Watch follows a job from replay through live events to the
// terminal frame, and disconnecting clients release their timeline
// subscriptions (no goroutine or subscription leak).
func TestServerSSEStreamAndRelease(t *testing.T) {
	s, ts := newTestServer(t)

	release := make(chan struct{})
	j := s.store.add(KindLifetime, &blockParams{release: release}, "sse-fixture-00001", s.tenants.Anonymous(), time.Now())
	if s.pool.Submit(j) != submitOK {
		t.Fatal("blocker rejected")
	}
	tl, ok := s.store.timeline(j.ID)
	if !ok {
		t.Fatal("job has no timeline")
	}

	baseline := runtime.NumGoroutine()

	// Open several streams and abandon them mid-flight: every
	// subscription must be released.
	const clients = 4
	for i := 0; i < clients; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type = %q", ct)
		}
		// Read the replayed "queued" frame so the stream is known live,
		// then vanish without saying goodbye.
		buf := make([]byte, 1)
		if _, err := resp.Body.Read(buf); err != nil {
			t.Fatalf("stream %d never delivered: %v", i, err)
		}
		cancel()
		resp.Body.Close()
	}

	waitForCondition(t, 10*time.Second, "subscriptions released", func() bool {
		return tl.Subscribers() == 0
	})
	waitForCondition(t, 10*time.Second, "stream goroutines exited", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})

	// A surviving client sees replay, live events, and the terminal
	// frame, in order with contiguous sequence numbers.
	c := pcmclient.New(ts.URL)
	var events []pcmclient.TimelineEvent
	watchDone := make(chan error, 1)
	go func() {
		_, err := c.Watch(context.Background(), j.ID, func(ev pcmclient.TimelineEvent) {
			events = append(events, ev)
		})
		watchDone <- err
	}()
	waitForCondition(t, 10*time.Second, "watcher subscribed", func() bool {
		return tl.Subscribers() == 1
	})
	close(release)
	if err := <-watchDone; err != nil {
		t.Fatalf("watch: %v", err)
	}
	if len(events) < 3 {
		t.Fatalf("watch saw %d events, want >= 3 (queued, started, done)", len(events))
	}
	types := make([]string, len(events))
	for i, ev := range events {
		types[i] = ev.Type
		if i > 0 && ev.Seq != events[i-1].Seq+1 {
			t.Fatalf("sequence gap: %v", events)
		}
	}
	if types[0] != "queued" || types[len(types)-1] != "done" {
		t.Fatalf("event types = %v, want queued...done", types)
	}
	waitForCondition(t, 10*time.Second, "watcher released", func() bool {
		return tl.Subscribers() == 0
	})

	metrics := fetchText(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "pcmd_sse_active 0") {
		t.Fatalf("metrics report active streams after all clients left:\n%s", metrics)
	}
	if !strings.Contains(metrics, fmt.Sprintf("pcmd_sse_streams_total %d", clients+1)) {
		t.Fatalf("metrics missing stream total %d:\n%s", clients+1, metrics)
	}
}

// TestServerBatchSubmit pins the atomic batch endpoint: mixed-kind
// batches admit together, a bad entry rejects the whole batch with its
// index, and an over-burst batch is a client error rather than an
// endless 429.
func TestServerBatchSubmit(t *testing.T) {
	reg, err := tenant.NewRegistry([]*tenant.Tenant{
		tenant.NewTenant("carol", "carol-key", 10, 3, 1),
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, QueueDepth: 32, JobTimeout: time.Minute, Tenants: reg})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(key, body string) (*http.Response, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs:batch", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("X-Api-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp, doc
	}

	// A valid two-job batch admits atomically.
	resp, doc := post("", `{"jobs": [
		{"kind": "lifetime", "params": {"app": "milc", "scale": "quick", "systems": ["baseline"]}},
		{"kind": "compression", "params": {"apps": ["milc"], "scale": "quick"}}
	]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d (%v), want 202", resp.StatusCode, doc)
	}
	jobs := doc["jobs"].([]any)
	if len(jobs) != 2 {
		t.Fatalf("batch returned %d jobs, want 2", len(jobs))
	}
	for _, entry := range jobs {
		pollDone(t, ts, entry.(map[string]any)["id"].(string))
	}

	// One bad entry fails the whole batch, naming the index; nothing is
	// admitted.
	before := len(s.store.list())
	resp, doc = post("", `{"jobs": [
		{"kind": "lifetime", "params": {"app": "milc", "scale": "quick", "systems": ["baseline"]}},
		{"kind": "no-such-kind"}
	]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: %d, want 400", resp.StatusCode)
	}
	if msg := doc["error"].(string); !strings.Contains(msg, "jobs[1]") {
		t.Fatalf("error %q does not name the offending index", msg)
	}
	if after := len(s.store.list()); after != before {
		t.Fatalf("failed batch admitted jobs: %d -> %d", before, after)
	}

	// A batch larger than the tenant's burst can never be admitted: 400,
	// not 429.
	resp, doc = post("carol-key", `{"jobs": [
		{"kind": "lifetime", "params": {"app": "milc", "scale": "quick", "systems": ["baseline"], "seed": 1}},
		{"kind": "lifetime", "params": {"app": "milc", "scale": "quick", "systems": ["baseline"], "seed": 2}},
		{"kind": "lifetime", "params": {"app": "milc", "scale": "quick", "systems": ["baseline"], "seed": 3}},
		{"kind": "lifetime", "params": {"app": "milc", "scale": "quick", "systems": ["baseline"], "seed": 4}}
	]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-burst batch: %d (%v), want 400", resp.StatusCode, doc)
	}
	if msg := doc["error"].(string); !strings.Contains(msg, "burst") {
		t.Fatalf("error %q does not explain the burst bound", msg)
	}
}

// TestServerBatchAdoptsPropagatedTrace checks that a batch submission
// joins the submitter's trace, as a single submission does: every job in
// the batch carries the trace ID from the propagation headers.
func TestServerBatchAdoptsPropagatedTrace(t *testing.T) {
	_, ts := newTestServer(t)
	traceID := obs.NewTraceID()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs:batch", strings.NewReader(`{"jobs": [
		{"kind": "failure-probability", "params": {"scheme": "ecp", "window": 16, "max_errors": 4, "trials": 50}},
		{"kind": "compression", "params": {"apps": ["milc"], "scale": "quick"}}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceIDHeader, traceID)
	req.Header.Set(obs.SpanIDHeader, "00000000000000a1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Jobs []struct {
			ID      string `json:"id"`
			TraceID string `json:"trace_id"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || len(doc.Jobs) != 2 {
		t.Fatalf("batch: %d with %d jobs, want 202 with 2", resp.StatusCode, len(doc.Jobs))
	}
	for _, j := range doc.Jobs {
		if j.TraceID != traceID {
			t.Errorf("job %s trace_id = %q, want the propagated %q", j.ID, j.TraceID, traceID)
		}
		if done := pollDone(t, ts, j.ID); done["trace_id"] != traceID {
			t.Errorf("finished job %s trace_id = %v, want the propagated %q", j.ID, done["trace_id"], traceID)
		}
	}
}

// TestServerAPIKeyAuth pins the auth contract: unknown keys get 401
// everywhere, missing keys fall back to the anonymous tenant, and known
// keys stamp their tenant onto the job document.
func TestServerAPIKeyAuth(t *testing.T) {
	reg, err := tenant.NewRegistry([]*tenant.Tenant{
		tenant.NewTenant("dave", "dave-key", 0, 0, 1),
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 16, JobTimeout: time.Minute, Tenants: reg})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs", nil)
	req.Header.Set("X-Api-Key", "wrong-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: %d, want 401", resp.StatusCode)
	}

	doc, code := submit(t, ts, "lifetime", `{"app": "milc", "scale": "quick", "systems": ["baseline"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("anonymous submit: %d", code)
	}
	if tn, ok := doc["tenant"]; ok && tn != "anonymous" {
		t.Fatalf("anonymous job tenant = %v", tn)
	}

	keyed := submitAs(t, ts, "dave-key", "lifetime", `{"app": "milc", "scale": "quick", "systems": ["baseline"], "seed": 9}`)
	var kdoc Job
	if err := json.NewDecoder(keyed.Body).Decode(&kdoc); err != nil {
		t.Fatal(err)
	}
	keyed.Body.Close()
	if kdoc.Tenant != "dave" {
		t.Fatalf("keyed job tenant = %q, want dave", kdoc.Tenant)
	}
	pollDone(t, ts, kdoc.ID)
}

// submitAs POSTs a job with an API key and returns the raw response
// (callers own the body).
func submitAs(t *testing.T, ts *httptest.Server, key, kind, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/"+kind, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Api-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// pollRaw polls a job until done and returns the typed document with the
// raw result bytes intact.
func pollRaw(t *testing.T, ts *httptest.Server, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc Job
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if doc.State == StateDone {
			return &doc
		}
		if doc.State.Terminal() {
			t.Fatalf("job %s ended %s: %s", id, doc.State, doc.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, doc.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchText GETs a URL and returns the body as a string.
func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// waitForCondition polls cond until true or the deadline, then fails.
func waitForCondition(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
