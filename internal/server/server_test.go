package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pcmcomp/internal/compress"
	"pcmcomp/internal/config"
	"pcmcomp/internal/core"
	"pcmcomp/internal/experiments"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/stats"
	"pcmcomp/internal/workload"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, QueueDepth: 16, JobTimeout: 2 * time.Minute})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// submit POSTs a job and returns the decoded job document.
func submit(t *testing.T, ts *httptest.Server, kind, body string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs/"+kind, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc, resp.StatusCode
}

// pollDone polls a job until done (or fails the test).
func pollDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch doc["state"] {
		case string(StateDone):
			return doc
		case string(StateFailed):
			t.Fatalf("job %s failed: %v", id, doc["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v", id, doc["state"])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerLifetimeJobEndToEnd submits a quick-scale lifetime job and checks the
// demand-writes figure against a direct lifetime.Run over the identical
// configuration — the same path cmd/lifetime takes.
func TestServerLifetimeJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	doc, code := submit(t, ts, "lifetime",
		`{"app": "milc", "scale": "quick", "systems": ["baseline"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, doc)
	}
	done := pollDone(t, ts, doc["id"].(string))

	var res LifetimeResult
	raw, _ := json.Marshal(done["result"])
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 1 || res.Systems[0].System != "baseline" {
		t.Fatalf("unexpected systems: %+v", res.Systems)
	}

	// Reference run, exactly as cmd/lifetime -app milc -scale quick does.
	scale := config.ScaleQuick
	prof, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, scale.TraceLines, 1)
	if err != nil {
		t.Fatal(err)
	}
	events := gen.GenerateTrace(scale.TraceEvents)
	want, err := lifetime.Run(lifetime.DefaultConfig(core.DefaultConfig(core.Baseline, scale.Substrate(1))), events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Systems[0].DemandWrites != want.DemandWrites {
		t.Fatalf("demand writes %d, want %d (CLI-equivalent run)",
			res.Systems[0].DemandWrites, want.DemandWrites)
	}
}

// TestServerCacheHitDeterminism submits the same job twice: the second must be
// served from the cache with a byte-identical result and show up in the
// /metrics hit counter.
func TestServerCacheHitDeterminism(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"app": "sjeng", "scale": "quick", "systems": ["baseline"], "seed": 7}`
	doc1, code := submit(t, ts, "lifetime", body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	done1 := pollDone(t, ts, doc1["id"].(string))

	doc2, code := submit(t, ts, "lifetime", body)
	if code != http.StatusOK {
		t.Fatalf("cached submit: %d, want 200", code)
	}
	if doc2["state"] != string(StateDone) || doc2["cache_hit"] != true {
		t.Fatalf("second submission not a cache hit: %v", doc2)
	}
	r1, _ := json.Marshal(done1["result"])
	r2, _ := json.Marshal(doc2["result"])
	if !bytes.Equal(r1, r2) {
		t.Fatalf("cache returned different bytes:\n%s\n%s", r1, r2)
	}
	if hits := s.metrics.snapshotCacheHits(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pcmd_cache_hits_total 1") {
		t.Fatalf("metrics missing hit counter:\n%s", buf.String())
	}
}

// TestServerEachKindEndToEnd exercises submit -> poll -> result for all three
// job kinds at small sizes.
func TestServerEachKindEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		kind, body string
		check      func(t *testing.T, result map[string]any)
	}{
		{"lifetime", `{"app": "milc", "scale": "quick", "systems": ["baseline", "comp+wf"]}`,
			func(t *testing.T, r map[string]any) {
				if n := len(r["systems"].([]any)); n != 2 {
					t.Fatalf("systems = %d, want 2", n)
				}
			}},
		{"failure-probability", `{"scheme": "ecp", "window": 16, "max_errors": 12, "trials": 200}`,
			func(t *testing.T, r map[string]any) {
				if n := len(r["curve"].([]any)); n != 12 {
					t.Fatalf("curve points = %d, want 12", n)
				}
				if r["tolerable_at_half"].(float64) <= 0 {
					t.Fatal("tolerable_at_half not positive")
				}
			}},
		{"compression", `{"apps": ["milc", "gcc"], "scale": "quick"}`,
			func(t *testing.T, r map[string]any) {
				if n := len(r["apps"].([]any)); n != 2 {
					t.Fatalf("apps = %d, want 2", n)
				}
				avg := r["average"].(map[string]any)
				if avg["best_bytes"].(float64) <= 0 {
					t.Fatal("average best_bytes not positive")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			doc, code := submit(t, ts, tc.kind, tc.body)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d (%v)", code, doc)
			}
			done := pollDone(t, ts, doc["id"].(string))
			tc.check(t, done["result"].(map[string]any))
		})
	}
}

// TestCompressionJobMatchesFig3 pins the compression job to cmd/figures
// fig3: each app's row equals the matching Fig3CompressedSizes row
// bit-exactly, and best_ratio — best_bytes/64 — equals the mean of the
// per-event BEST ratios, since dividing by 64 is exact.
func TestCompressionJobMatchesFig3(t *testing.T) {
	_, ts := newTestServer(t)
	const seed = 7
	apps := []string{"milc", "gcc", "sjeng"}
	doc, code := submit(t, ts, "compression", `{"apps": ["milc", "gcc", "sjeng"], "scale": "quick", "seed": 7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, doc)
	}
	done := pollDone(t, ts, doc["id"].(string))
	raw, err := json.Marshal(done["result"])
	if err != nil {
		t.Fatal(err)
	}
	var res CompressionResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != len(apps) {
		t.Fatalf("apps = %d, want %d", len(res.Apps), len(apps))
	}

	scale := config.ScaleQuick
	fig3, err := experiments.Fig3CompressedSizes(scale.TraceLines, scale.TraceEvents, seed)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]int)
	for i := 0; i < fig3.Rows(); i++ {
		rows[fig3.Label(i)] = i
	}
	for i, app := range apps {
		got := res.Apps[i]
		row, ok := rows[app]
		if got.App != app || !ok {
			t.Fatalf("row %d: app %q, want %q in Fig 3", i, got.App, app)
		}
		want := [3]float64{fig3.Value(row, 0), fig3.Value(row, 1), fig3.Value(row, 2)}
		if [3]float64{got.BDIBytes, got.FPCBytes, got.BestBytes} != want {
			t.Errorf("%s: job bdi/fpc/best = %v/%v/%v, Fig 3 = %v",
				app, got.BDIBytes, got.FPCBytes, got.BestBytes, want)
		}

		prof, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		g, err := workload.NewGenerator(prof, scale.TraceLines, seed)
		if err != nil {
			t.Fatal(err)
		}
		var comp compress.Compressor
		var ratio stats.Running
		for j := 0; j < scale.TraceEvents; j++ {
			ev := g.Next()
			ratio.Add(comp.Compress(&ev.Data).Ratio())
		}
		if got.BestRatio != got.BestBytes/64 || got.BestRatio != ratio.Mean() {
			t.Errorf("%s: best_ratio %v, best_bytes/64 %v, mean per-event ratio %v",
				app, got.BestRatio, got.BestBytes/64, ratio.Mean())
		}
	}
}

// TestServerConcurrentSubmissions hammers the server from many goroutines (run
// under -race in CI). A mix of identical and distinct jobs exercises the
// cache and pool paths concurrently.
func TestServerConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 12
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Three distinct seeds; repeats hit the cache or dedupe work.
			body := fmt.Sprintf(`{"scheme": "safer", "window": 16, "max_errors": 8, "trials": 200, "seed": %d}`, 1+i%3)
			resp, err := http.Post(ts.URL+"/v1/jobs/failure-probability", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var doc map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d: status %d (%v)", i, resp.StatusCode, doc)
				return
			}
			ids[i] = doc["id"].(string)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		pollDone(t, ts, id)
	}
}

// TestServerShutdownDrainsInFlight submits a job, waits for it to start, then
// shuts down: the job must complete (not cancel) and later submissions
// must be rejected with 503 — the SIGTERM drain contract.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()

	doc, code := submit(t, ts, "lifetime", `{"app": "milc", "scale": "quick", "systems": ["baseline"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := doc["id"].(string)

	// Wait until the job leaves the queue so the drain races a running job.
	for {
		j, ok := s.store.get(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if j.State != StateQueued {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	j, _ := s.store.get(id)
	if j.State != StateDone {
		t.Fatalf("in-flight job state after drain = %s, want done", j.State)
	}
	if _, code := submit(t, ts, "compression", `{"apps": ["milc"]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

// TestServerValidation checks the 400/404 surfaces.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct{ kind, body string }{
		{"lifetime", `{"scale": "quick"}`},                    // app missing
		{"lifetime", `{"app": "bogus"}`},                      // unknown app
		{"lifetime", `{"app": "milc", "scale": "bogus"}`},     // unknown scale
		{"lifetime", `{"app": "milc", "systems": ["bogus"]}`}, // unknown system
		{"lifetime", `{"app": "milc", "bogus_field": 1}`},     // unknown field
		{"failure-probability", `{"scheme": "secded"}`},       // not a Fig 9 scheme
		{"failure-probability", `{"window": 65}`},             // window too big
		{"failure-probability", `{"trials": 100000000}`},      // trials over cap
		{"compression", `{"apps": ["nope"]}`},                 // unknown app
		{"lifetime", `not json`},                              // malformed body
	} {
		if _, code := submit(t, ts, tc.kind, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.kind, tc.body, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j000000-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestServerDiscoveryEndpoints checks /v1/workloads and /v1/schemes.
func TestServerDiscoveryEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var wl struct {
		Workloads []struct {
			Name string  `json:"name"`
			WPKI float64 `json:"wpki"`
		} `json:"workloads"`
	}
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&wl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(wl.Workloads) != 15 {
		t.Fatalf("workloads = %d, want the paper's 15", len(wl.Workloads))
	}
	var sc struct {
		Schemes []struct {
			Name string `json:"name"`
		} `json:"schemes"`
		Codecs       []struct{ Name string } `json:"codecs"`
		ECCs         []struct{ Name string } `json:"eccs"`
		Encoders     []struct{ Name string } `json:"encoders"`
		WearPolicies []struct{ Name string } `json:"wear_policies"`
		Presets      []struct {
			Name string `json:"name"`
			Spec string `json:"spec"`
		} `json:"presets"`
	}
	resp, err = http.Get(ts.URL + "/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sc.Schemes) != 4 {
		t.Fatalf("schemes = %d, want 4", len(sc.Schemes))
	}
	// The composition registry rides along: every axis non-empty, and the
	// four paper presets each carrying a parseable spec.
	if len(sc.Codecs) == 0 || len(sc.ECCs) == 0 || len(sc.Encoders) == 0 || len(sc.WearPolicies) == 0 {
		t.Fatalf("registry sections missing: codecs=%d eccs=%d encoders=%d wear_policies=%d",
			len(sc.Codecs), len(sc.ECCs), len(sc.Encoders), len(sc.WearPolicies))
	}
	if len(sc.Presets) != 4 {
		t.Fatalf("presets = %d, want 4", len(sc.Presets))
	}
	for _, p := range sc.Presets {
		if p.Spec == "" {
			t.Errorf("preset %q has no spec", p.Name)
		}
	}
}

// blockParams is a test-only job that runs until released, to pin workers
// deterministically.
type blockParams struct {
	release chan struct{}
}

func (p *blockParams) normalize() error { return nil }
func (p *blockParams) run(ctx context.Context, _ *jobProgress) (any, error) {
	select {
	case <-p.release:
		return "released", nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestServerQueueFull pins the single worker and fills the single queue
// slot with blocking jobs, then checks that the overflow submission is
// rejected with 503.
func TestServerQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, JobTimeout: time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()
	release := make(chan struct{})
	released := false
	releaseAll := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer releaseAll()

	// First blocker occupies the worker...
	j1 := s.store.add(KindLifetime, &blockParams{release: release}, "0000000000000001", s.tenants.Anonymous(), time.Now())
	if s.pool.Submit(j1) != submitOK {
		t.Fatal("first blocker rejected")
	}
	for {
		if j, _ := s.store.get(j1.ID); j.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// ...the second fills the queue slot...
	j2 := s.store.add(KindLifetime, &blockParams{release: release}, "0000000000000002", s.tenants.Anonymous(), time.Now())
	if s.pool.Submit(j2) != submitOK {
		t.Fatal("second blocker rejected")
	}
	// ...so a real submission must bounce.
	doc, code := submit(t, ts, "lifetime", `{"app": "milc", "scale": "quick", "systems": ["baseline"]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d (%v), want 503", code, doc)
	}

	releaseAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestCacheLRUEviction exercises the cache directly.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", json.RawMessage(`1`))
	c.Put("b", json.RawMessage(`2`))
	if _, ok := c.Get("a"); !ok { // promote a
		t.Fatal("a missing")
	}
	c.Put("c", json.RawMessage(`3`)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used a evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	disabled := newResultCache(-1)
	disabled.Put("x", json.RawMessage(`1`))
	if _, ok := disabled.Get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestCacheKeyCanonical checks that omitted defaults and explicit defaults
// hash identically, and that different params do not.
func TestCacheKeyCanonical(t *testing.T) {
	a := &LifetimeParams{App: "milc"}
	b := &LifetimeParams{App: "milc", Scale: "quick", Seed: 1,
		Systems: []string{"baseline", "comp", "compw", "compwf"}}
	for _, p := range []*LifetimeParams{a, b} {
		if err := p.normalize(); err != nil {
			t.Fatal(err)
		}
	}
	ka, err := cacheKey(KindLifetime, a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := cacheKey(KindLifetime, b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("alternate spellings of the default job hash differently:\n%s\n%s", ka, kb)
	}
	c := &LifetimeParams{App: "milc", Seed: 2}
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	kc, _ := cacheKey(KindLifetime, c)
	if kc == ka {
		t.Fatal("different seeds share a cache key")
	}
}
