package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pcmcomp/internal/tenant"
)

// postBody POSTs body to path with an optional API key and returns the
// status, the Retry-After header and the raw response body.
func postBody(t *testing.T, ts *httptest.Server, path, key, body string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
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
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), buf
}

// admissionCounters reads the front-door counters from the exposition,
// keyed by series (name and labels).
func admissionCounters(s *Server) map[string]float64 {
	var buf bytes.Buffer
	s.renderMetrics(&buf)
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		for _, name := range []string{
			"pcmd_tenant_submitted_total", "pcmd_cache_hits_total",
			"pcmd_cache_misses_total", "pcmd_submit_rejected_total",
		} {
			if series == name || strings.HasPrefix(series, name+"{") {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					panic(err)
				}
				out[series] = v
			}
		}
	}
	return out
}

// pinWorkers occupies the single worker with a blocking job and queues
// `queued` more behind it.
func pinWorkers(t *testing.T, s *Server, release chan struct{}, queued int) {
	t.Helper()
	for i := 0; i <= queued; i++ {
		j := s.store.add(KindLifetime, &blockParams{release: release}, fmt.Sprintf("%016x", i+1), s.tenants.Anonymous(), time.Now())
		if s.pool.Submit(j) != submitOK {
			t.Fatalf("blocker %d rejected", i)
		}
		if i == 0 {
			waitForCondition(t, 10*time.Second, "blocker running", func() bool {
				doc, _ := s.store.get(j.ID)
				return doc.State == StateRunning
			})
		}
	}
}

// TestSingleAndBatchOfOneAdmitAlike posts the same job to POST
// /v1/jobs/{kind} and as a one-entry POST /v1/jobs:batch, each on a fresh
// server in the same state. Both routes share one admission path, so the
// status, Retry-After, job document (less IDs, timestamps and the batch
// wrapper) and front-door counter deltas must match.
func TestSingleAndBatchOfOneAdmitAlike(t *testing.T) {
	const valid = `{"apps": ["milc"], "scale": "quick"}`
	cases := []struct {
		name   string
		params string
		key    string
		depth  int
		want   int // the status both routes answer
		setup  func(t *testing.T, s *Server, erin *tenant.Tenant, release chan struct{})
	}{
		{name: "fresh admit", params: valid, depth: 4, want: http.StatusAccepted,
			setup: func(t *testing.T, s *Server, _ *tenant.Tenant, release chan struct{}) {
				pinWorkers(t, s, release, 0) // the admitted job stays queued
			}},
		{name: "cache hit", params: valid, depth: 4, want: http.StatusOK,
			setup: func(t *testing.T, s *Server, _ *tenant.Tenant, _ chan struct{}) {
				p, err := decodeParams(KindCompression, json.RawMessage(valid))
				if err != nil {
					t.Fatal(err)
				}
				key, err := cacheKey(KindCompression, p)
				if err != nil {
					t.Fatal(err)
				}
				s.cache.Put(key, json.RawMessage(`{"cached":true}`))
			}},
		{name: "invalid params", params: `{"apps": ["no-such-app"]}`, depth: 4, want: http.StatusBadRequest},
		{name: "quota exhausted", params: valid, key: "erin-key", depth: 4, want: http.StatusTooManyRequests,
			setup: func(t *testing.T, _ *Server, erin *tenant.Tenant, _ chan struct{}) {
				if _, ok := erin.Take(time.Now(), 1); !ok {
					t.Fatal("fresh bucket refused its first token")
				}
			}},
		{name: "queue full", params: valid, depth: 1, want: http.StatusServiceUnavailable,
			setup: func(t *testing.T, s *Server, _ *tenant.Tenant, release chan struct{}) {
				pinWorkers(t, s, release, 1)
			}},
		{name: "draining", params: valid, depth: 4, want: http.StatusServiceUnavailable,
			setup: func(t *testing.T, s *Server, _ *tenant.Tenant, _ chan struct{}) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := s.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
			}},
	}

	type outcome struct {
		status     int
		retryAfter string
		job        map[string]any // nil for a refusal
		err        string
		deltas     map[string]float64
	}
	run := func(t *testing.T, i int, batch bool) outcome {
		c := cases[i]
		// A slow quota (one token per 100 s) that the quota case drains.
		erin := tenant.NewTenant("erin", "erin-key", 0.01, 1, 1)
		reg, err := tenant.NewRegistry([]*tenant.Tenant{erin}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 1, QueueDepth: c.depth, JobTimeout: time.Minute, Tenants: reg, ScrapeInterval: -1})
		ts := httptest.NewServer(s)
		defer ts.Close()
		release := make(chan struct{})
		defer func() {
			close(release)
			if !s.draining() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
			}
		}()
		if c.setup != nil {
			c.setup(t, s, erin, release)
		}

		before := admissionCounters(s)
		path, body := "/v1/jobs/compression", c.params
		if batch {
			path, body = "/v1/jobs:batch", `{"jobs": [{"kind": "compression", "params": `+c.params+`}]}`
		}
		var o outcome
		var raw []byte
		o.status, o.retryAfter, raw = postBody(t, ts, path, c.key, body)
		after := admissionCounters(s)
		o.deltas = make(map[string]float64)
		for series, v := range after {
			if d := v - before[series]; d != 0 {
				o.deltas[series] = d
			}
		}

		if o.status >= 300 {
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("refusal body %s: %v", raw, err)
			}
			o.err = doc.Error
			return o
		}
		if batch {
			var doc struct {
				Jobs  []map[string]any `json:"jobs"`
				Count int              `json:"count"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Count != 1 || len(doc.Jobs) != 1 {
				t.Fatalf("batch of one answered %d jobs (count %d)", len(doc.Jobs), doc.Count)
			}
			o.job = doc.Jobs[0]
		} else if err := json.Unmarshal(raw, &o.job); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"id", "trace_id", "created", "started", "finished"} {
			delete(o.job, field)
		}
		return o
	}

	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			single, batch := run(t, i, false), run(t, i, true)
			if single.status != c.want {
				t.Fatalf("single answered %d (%s), want %d", single.status, single.err, c.want)
			}
			if single.status != batch.status || single.retryAfter != batch.retryAfter {
				t.Fatalf("single answered %d (Retry-After %q), batch of one %d (Retry-After %q)",
					single.status, single.retryAfter, batch.status, batch.retryAfter)
			}
			if !reflect.DeepEqual(single.job, batch.job) {
				t.Errorf("job documents differ:\nsingle %v\nbatch  %v", single.job, batch.job)
			}
			// A batch prefixes a validation error with the entry's index.
			if want := single.err; want != "" && c.name == "invalid params" {
				want = "jobs[0]: " + want
				if batch.err != want {
					t.Errorf("batch error %q, want %q", batch.err, want)
				}
			} else if single.err != batch.err {
				t.Errorf("errors differ: single %q, batch %q", single.err, batch.err)
			}
			if !reflect.DeepEqual(single.deltas, batch.deltas) {
				t.Errorf("counter deltas differ:\nsingle %v\nbatch  %v", single.deltas, batch.deltas)
			}
		})
	}
}

// TestSubmissionRejectsTrailingData: a body with anything after its JSON
// document is refused with 400 on every submission route, and nothing is
// admitted. A json.Decoder alone reads the first document and ignores the
// rest.
func TestSubmissionRejectsTrailingData(t *testing.T) {
	s, ts := newTestServer(t)
	for _, c := range []struct{ path, body string }{
		{"/v1/jobs/lifetime", `{"app":"gcc"}{"app":"milc"}`},
		{"/v1/jobs/compression", `{"apps":["milc"]} "more"`},
		{"/v1/jobs:batch", `{"jobs":[{"kind":"compression","params":{"apps":["milc"]}}]}{"jobs":[]}`},
		{"/v1/sweeps", `{"kind":"compression","params":{"apps":["milc"]},"seed_count":2}}`},
	} {
		code, _, body := postBody(t, ts, c.path, "", c.body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s %s: %d (%s), want 400", c.path, c.body, code, body)
		}
	}
	if n := len(s.store.list()); n != 0 {
		t.Errorf("%d jobs admitted from bodies with trailing data", n)
	}
	if n := len(s.sweeps.list()); n != 0 {
		t.Errorf("%d sweeps admitted from bodies with trailing data", n)
	}
	if _, err := ExecuteLocal(context.Background(), KindCompression,
		json.RawMessage(`{"apps":["milc"]}{"apps":["gcc"]}`)); !errors.Is(err, errTrailingData) {
		t.Errorf("ExecuteLocal with trailing data: %v, want errTrailingData", err)
	}
}

// TestSubmissionBodyLimits: a body one byte over its route's bound is
// refused with 413; a body exactly at the bound (1 MiB for jobs and
// sweeps, 4 MiB for batches, padded with whitespace) is admitted.
func TestSubmissionBodyLimits(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct {
		path, doc string
		limit     int
	}{
		{"/v1/jobs/compression", `{"apps":["milc"],"scale":"quick"}`, 1 << 20},
		{"/v1/jobs:batch", `{"jobs":[{"kind":"compression","params":{"apps":["milc"],"seed":2}}]}`, 4 << 20},
		{"/v1/sweeps", `{"kind":"compression","params":{"apps":["milc"]},"seed_count":2}`, 1 << 20},
	} {
		atLimit := c.doc + strings.Repeat(" ", c.limit-len(c.doc))
		if code, _, body := postBody(t, ts, c.path, "", atLimit); code >= 300 {
			t.Errorf("POST %s of exactly %d bytes: %d (%s), want admitted", c.path, c.limit, code, body)
		}
		// One string value spanning the bound, so a decoder must read past it.
		over := `{"x":"` + strings.Repeat("a", c.limit) + `"}`
		code, _, body := postBody(t, ts, c.path, "", over)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s of %d bytes: %d (%s), want 413", c.path, len(over), code, body)
		}
	}
}

// TestServerCancelLargeLifetimeJobPromptly cancels a large-scale lifetime
// job as soon as it runs, while it is still building its trace and first
// controller: it must reach canceled within 5 s of the DELETE.
func TestServerCancelLargeLifetimeJobPromptly(t *testing.T) {
	s, ts := newTestServer(t)
	doc, code := submit(t, ts, "lifetime", `{"app": "milc", "scale": "large"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, doc)
	}
	id := doc["id"].(string)
	waitForCondition(t, 30*time.Second, "the job running", func() bool {
		j, _ := s.store.get(id)
		return j.State == StateRunning
	})
	deleted := time.Now()
	if _, code := cancelJob(t, ts, id); code != http.StatusAccepted {
		t.Fatalf("cancel running: %d, want 202", code)
	}
	waitForCondition(t, 5*time.Second, "the job canceled", func() bool {
		j, _ := s.store.get(id)
		return j.State == StateCanceled
	})
	t.Logf("canceled %v after the DELETE", time.Since(deleted).Round(time.Millisecond))
}
