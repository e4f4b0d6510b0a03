package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcmcomp/internal/obs"
)

// collectEvents fetches a flight-recorder timeline and returns the event
// types in order.
func collectEvents(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var doc struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	types := make([]string, len(doc.Events))
	for i, ev := range doc.Events {
		types[i] = ev.Type
	}
	return types
}

func countType(types []string, want string) int {
	n := 0
	for _, ty := range types {
		if ty == want {
			n++
		}
	}
	return n
}

// jobBarrier returns a handler wrapper that holds every POST /v1/jobs on
// the wrapped backends until n of them have arrived, then lets them all
// through (later submissions pass straight through). DESIGN §8 allows two
// shards on one backend: the least-loaded picker only spreads shards whose
// dispatches overlap. Holding the submissions makes them overlap, so a
// test that wants one shard per backend gets it without timing luck.
func jobBarrier(n int32) func(http.Handler) http.Handler {
	var arrived atomic.Int32
	all := make(chan struct{})
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
				if arrived.Add(1) == n {
					close(all)
				}
				select {
				case <-all:
				case <-r.Context().Done():
				}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestSweepTracePropagatesAcrossBackends is the observability e2e: a
// coordinator pcmd shards a sweep across two real backend daemons and the
// coordinator's trace ring must hold ONE trace whose span tree stitches
// all three processes together — the sweep span, a shard span per seed,
// a dispatch span per attempt, and under each dispatch the job.run span
// that the remote backend executed and reported back in its job document.
func TestSweepTracePropagatesAcrossBackends(t *testing.T) {
	var backendURLs []string
	var backendServers []*Server
	hold := jobBarrier(2)
	for i := 0; i < 2; i++ {
		b := New(Config{Workers: 2, QueueDepth: 32, JobTimeout: time.Minute, CacheEntries: -1})
		ts := httptest.NewServer(hold(b))
		t.Cleanup(ts.Close)
		backendURLs = append(backendURLs, ts.URL)
		backendServers = append(backendServers, b)
	}
	coord := New(Config{
		Workers: 2, QueueDepth: 16, JobTimeout: time.Minute, CacheEntries: -1,
		Peers: backendURLs,
	})
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)

	// Two shards, both dispatched concurrently at sweep start. The barrier
	// keeps the first shard in flight until the second is submitted, so
	// the least-loaded picker sends one to each backend.
	body := `{"kind":"failure-probability","params":{"scheme":"ecp","window":16,"max_errors":8,"trials":150000},"seed_count":2}`
	doc, code := postSweep(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%+v)", code, doc)
	}
	if doc.TraceID == "" {
		t.Fatal("202 sweep document carries no trace_id")
	}
	done := pollSweep(t, ts, doc.ID)
	if done.State != StateDone {
		t.Fatalf("sweep finished %s: %s", done.State, done.Error)
	}
	if done.TraceID != doc.TraceID {
		t.Fatalf("trace_id changed across polls: %s then %s", doc.TraceID, done.TraceID)
	}

	// The ring lists the trace.
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []obs.TraceSummary `json:"traces"`
		Count  int                `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, tr := range listing.Traces {
		if tr.TraceID == doc.TraceID {
			found = true
			if tr.Root != "sweep" {
				t.Errorf("trace root = %q, want sweep", tr.Root)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s absent from /debug/traces (%d retained)", doc.TraceID, listing.Count)
	}

	// The span tree: sweep -> 2x shard -> dispatch -> job.run, with the
	// job.run spans contributed by the REMOTE backends.
	resp, err = http.Get(ts.URL + "/debug/traces/" + doc.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: %d", doc.TraceID, resp.StatusCode)
	}
	var traceDoc struct {
		TraceID string          `json:"trace_id"`
		Spans   int             `json:"spans"`
		Tree    []*obs.SpanNode `json:"tree"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traceDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(traceDoc.Tree) != 1 || traceDoc.Tree[0].Name != "sweep" {
		t.Fatalf("trace tree roots = %+v, want single sweep root", traceDoc.Tree)
	}
	shards, dispatches, runs := 0, 0, 0
	dispatchBackends := map[string]bool{}
	obs.Walk(traceDoc.Tree, func(n *obs.SpanNode, depth int) {
		if n.TraceID != doc.TraceID {
			t.Errorf("span %s carries trace %s, want %s", n.Name, n.TraceID, doc.TraceID)
		}
		switch n.Name {
		case "shard":
			shards++
		case "dispatch":
			dispatches++
			dispatchBackends[n.Attrs.Get("backend")] = true
			if len(n.Children) != 1 || n.Children[0].Name != "job.run" {
				t.Errorf("dispatch span children = %+v, want one remote job.run", n.Children)
			}
		case "job.run":
			runs++
		}
	})
	if shards != 2 || dispatches != 2 || runs != 2 {
		t.Fatalf("span tree: %d shard, %d dispatch, %d job.run spans, want 2 of each", shards, dispatches, runs)
	}
	if len(dispatchBackends) != 2 {
		t.Errorf("dispatch spans name %d distinct backends (%v), want both", len(dispatchBackends), dispatchBackends)
	}

	// The sweep's flight recorder shows the scheduling timeline.
	types := collectEvents(t, ts.URL+"/v1/sweeps/"+doc.ID+"/events")
	for _, want := range []string{"created", "started", "merged", "done"} {
		if countType(types, want) != 1 {
			t.Errorf("sweep timeline %v: want exactly one %q event", types, want)
		}
	}
	if countType(types, "shard_dispatch") != 2 {
		t.Errorf("sweep timeline %v: want two shard_dispatch events", types)
	}
	if countType(types, "shard_done") != 2 {
		t.Errorf("sweep timeline %v: want two shard_done events", types)
	}

	// Each backend ran one job of the sweep's trace: its own trace ring
	// holds the job's execution under the sweep's trace. The coordinator
	// released each finished shard job before the sweep finished, so no
	// backend lists a job any more.
	for i, burl := range backendURLs {
		resp, err := http.Get(burl + "/debug/traces/" + doc.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		var jobTrace struct {
			Tree []*obs.SpanNode `json:"tree"`
		}
		err = json.NewDecoder(resp.Body).Decode(&jobTrace)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %d GET /debug/traces/%s: %d %v", i, doc.TraceID, resp.StatusCode, err)
		}
		jobRuns := 0
		obs.Walk(jobTrace.Tree, func(n *obs.SpanNode, depth int) {
			if n.Name == "job.run" {
				jobRuns++
			}
		})
		if jobRuns != 1 {
			t.Errorf("backend %d traced %d job.run spans of the sweep, want 1", i, jobRuns)
		}
		resp, err = http.Get(burl + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			Jobs []Job `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Jobs) != 0 {
			t.Errorf("backend %d still holds %d jobs after the merge, want the shard released", i, len(page.Jobs))
		}
	}

	for _, s := range append(backendServers, coord) {
		if err := shutdownServer(s); err != nil {
			t.Fatal(err)
		}
	}
}
