package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pcmcomp/internal/cluster"
)

// postSweep POSTs /v1/sweeps and returns the decoded sweep document.
func postSweep(t *testing.T, ts *httptest.Server, body string) (SweepStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		buf, _ := io.ReadAll(resp.Body)
		return SweepStatus{Error: string(buf)}, resp.StatusCode
	}
	var doc SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc, resp.StatusCode
}

// pollSweep polls GET /v1/sweeps/{id} until the sweep is terminal.
func pollSweep(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc SweepStatus
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if doc.State.Terminal() {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s (%d/%d shards)", id, doc.State, doc.ShardsDone, doc.ShardsTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepEndpointEndToEnd drives POST /v1/sweeps on a peerless server:
// the sweep runs on the in-process loopback backend, merges, lands in the
// result cache, and an identical re-submission is answered from it.
func TestSweepEndpointEndToEnd(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"kind":"failure-probability","params":{"scheme":"ecp","window":16,"max_errors":8,"trials":2000},"seed_count":3}`
	doc, code := postSweep(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%+v)", code, doc)
	}
	if doc.ShardsTotal != 3 || doc.ID == "" {
		t.Fatalf("submitted doc = %+v", doc)
	}
	done := pollSweep(t, ts, doc.ID)
	if done.State != StateDone {
		t.Fatalf("sweep finished %s: %s", done.State, done.Error)
	}
	if done.ShardsDone != 3 {
		t.Errorf("shards_done = %d, want 3", done.ShardsDone)
	}
	var res struct {
		Shards    []struct{ Seed uint64 }
		MeanCurve []float64 `json:"mean_curve"`
	}
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 3 || len(res.MeanCurve) != 8 {
		t.Fatalf("merged result shape: %d shards, %d curve points", len(res.Shards), len(res.MeanCurve))
	}

	// Identical sweep: answered from the content-addressed cache.
	doc2, code2 := postSweep(t, ts, body)
	if code2 != http.StatusOK || !doc2.CacheHit {
		t.Fatalf("re-submit: code %d, cache_hit %v", code2, doc2.CacheHit)
	}
	if !bytes.Equal(doc2.Result, done.Result) {
		t.Error("cached sweep result differs from the computed one")
	}

	// The sweep list includes both handles.
	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var listDoc struct {
		Sweeps []sweepSummary `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listDoc.Sweeps) != 2 {
		t.Fatalf("sweep list = %d entries, want 2", len(listDoc.Sweeps))
	}

	// The backends view shows the peerless loopback.
	resp, err = http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var backendsDoc struct {
		Backends []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&backendsDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(backendsDoc.Backends) != 1 || backendsDoc.Backends[0].Name != "local" || !backendsDoc.Backends[0].Healthy {
		t.Fatalf("backends = %+v, want one healthy loopback named local", backendsDoc.Backends)
	}

	// Sweep and cluster counters are on /metrics.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`pcmd_sweeps_total{outcome="done"} 1`,
		"pcmd_cluster_dispatch_total 3",
		`pcmd_cluster_backend_up{backend="local"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if err := shutdownServer(s); err != nil {
		t.Fatal(err)
	}
}

func shutdownServer(s *Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"kind":"bogus"}`,
		`{}`,
		`{"kind":"lifetime","seed_count":100000}`,
		`{"kind":"lifetime","mystery_field":1}`,
		`{"kind":`,
	} {
		if doc, code := postSweep(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("POST /v1/sweeps %s: code %d (%+v), want 400", body, code, doc)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/s999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown sweep: %d, want 404", resp.StatusCode)
	}
}

// TestSweepRejectsBadShardParams: params the job route rejects get the
// same 400, with the same error text, on the sweep route, and no sweep is
// queued for them.
func TestSweepRejectsBadShardParams(t *testing.T) {
	_, ts := newTestServer(t)
	for _, params := range []string{
		`{"scheme":"bogus"}`,
		`{"scheme":"ecp","trace":"sha256:00","max_errors":4}`,
	} {
		job, err := http.Post(ts.URL+"/v1/jobs/failure-probability", "application/json", strings.NewReader(params))
		if err != nil {
			t.Fatal(err)
		}
		jobErr, _ := io.ReadAll(job.Body)
		job.Body.Close()
		if job.StatusCode != http.StatusBadRequest {
			t.Fatalf("job route accepted %s: %d", params, job.StatusCode)
		}
		doc, code := postSweep(t, ts, `{"kind":"failure-probability","params":`+params+`,"seed_count":2}`)
		if code != http.StatusBadRequest || doc.Error != string(jobErr) {
			t.Errorf("sweep with params %s: %d %q, want 400 %q", params, code, doc.Error, jobErr)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []SweepStatus `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 0 {
		t.Fatalf("rejected sweeps were queued: %+v", list.Sweeps)
	}
}

// TestSweepCacheKeysUnchangedByValidation pins the cache keys of valid
// sweeps: validating a shard's params must not rewrite the request.
func TestSweepCacheKeysUnchangedByValidation(t *testing.T) {
	for body, want := range map[string]string{
		`{"kind":"failure-probability","params":{"scheme":"ecp","window":16,"max_errors":8,"trials":2000},"seed_count":3}`: "44e7415d91bc0d8479161787f6b83bb2e7fd018289769cf1688cae715cc8887a",
		`{"kind":"lifetime","params":{"app":"milc","scale":"quick"},"seed_count":2,"schemes":["comp+w","ecc=safer"]}`:      "bbefcd7db2541b12e16be11612660d1866301e2c83a195d3e39e8055f223b6be",
		`{"kind":"compression","params":{"apps":["milc"],"scale":"quick"}}`:                                                "5877efb92c5b312d8647691711b8ea7101562dc7574f4ea341074b402b18ff2e",
	} {
		var req cluster.SweepRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := normalizeSweep(&req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got, err := sweepCacheKey(req); err != nil || got != want {
			t.Errorf("%s: cache key %s (%v), want %s", body, got, err, want)
		}
	}
}

func TestSweepCancel(t *testing.T) {
	s, ts := newTestServer(t)
	// Enough work that the sweep is still running when the DELETE lands.
	body := `{"kind":"failure-probability","params":{"scheme":"ecp","window":16,"max_errors":64,"trials":1000000},"seed_count":8}`
	doc, code := postSweep(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+doc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", resp.StatusCode)
	}
	final := pollSweep(t, ts, doc.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", final.State)
	}

	// Canceling a terminal sweep conflicts; unknown IDs are 404.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second cancel: %d, want 409", resp.StatusCode)
	}
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/s999999", nil)
	resp, err = http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown: %d, want 404", resp.StatusCode)
	}
	if err := shutdownServer(s); err != nil {
		t.Fatal(err)
	}
}

// TestJobListPagination exercises GET /v1/jobs state filtering and paging.
func TestJobListPagination(t *testing.T) {
	_, ts := newTestServer(t)
	var ids []string
	for i := 0; i < 5; i++ {
		doc, code := submit(t, ts, "compression",
			fmt.Sprintf(`{"apps":["milc"],"scale":"quick","seed":%d}`, i+1))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, doc["id"].(string))
	}
	for _, id := range ids {
		pollDone(t, ts, id)
	}

	type page struct {
		Jobs       []Job `json:"jobs"`
		Total      int   `json:"total"`
		Offset     int   `json:"offset"`
		NextOffset *int  `json:"next_offset"`
	}
	fetch := func(query string) (page, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p page
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
				t.Fatal(err)
			}
		}
		return p, resp.StatusCode
	}

	// Page through two at a time; pages are created-then-ID ordered so the
	// three pages tile the full set exactly.
	var seen []string
	offset := 0
	for range [3]int{} {
		p, code := fetch(fmt.Sprintf("?state=done&limit=2&offset=%d", offset))
		if code != http.StatusOK {
			t.Fatalf("list: %d", code)
		}
		if p.Total != 5 {
			t.Fatalf("total = %d, want 5", p.Total)
		}
		for _, j := range p.Jobs {
			seen = append(seen, j.ID)
		}
		if p.NextOffset == nil {
			break
		}
		offset = *p.NextOffset
	}
	if len(seen) != 5 {
		t.Fatalf("paged through %d jobs (%v), want 5", len(seen), seen)
	}
	for i, id := range seen {
		if id != ids[i] {
			t.Fatalf("page order %v, want submission order %v", seen, ids)
		}
	}

	// State filter excludes non-matching jobs entirely.
	if p, _ := fetch("?state=running"); p.Total != 0 || len(p.Jobs) != 0 {
		t.Errorf("running filter returned %d/%d", len(p.Jobs), p.Total)
	}
	// Past-the-end offsets return an empty page, not an error.
	if p, code := fetch("?offset=100"); code != http.StatusOK || len(p.Jobs) != 0 || p.NextOffset != nil {
		t.Errorf("past-the-end page: code %d, %d jobs, next %v", code, len(p.Jobs), p.NextOffset)
	}
	// Bad parameters are rejected.
	for _, q := range []string{"?state=bogus", "?limit=abc", "?offset=-1"} {
		if _, code := fetch(q); code != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s: %d, want 400", q, code)
		}
	}
}

// progressParams is a test-only job that publishes a progress value and then
// blocks, so a snapshot deterministically observes a mid-run meter. Once
// released it reports completion before it returns.
type progressParams struct {
	release chan struct{}
}

func (p *progressParams) normalize() error { return nil }
func (p *progressParams) run(ctx context.Context, pr *jobProgress) (any, error) {
	pr.set(3, 10)
	select {
	case <-p.release:
		pr.set(10, 10)
		return "released", nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestJobProgressSnapshot pins that a running job's GET document carries the
// live done/total meter and that terminal documents drop it.
func TestJobProgressSnapshot(t *testing.T) {
	s, ts := newTestServer(t)
	release := make(chan struct{})
	j := s.store.add(KindLifetime, &progressParams{release: release}, "00000000deadbeef", nil, time.Now())
	if s.pool.Submit(j) != submitOK {
		t.Fatal("submit rejected")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var doc Job
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if doc.State == StateRunning && doc.Progress != nil {
			if doc.Progress.Done != 3 || doc.Progress.Total != 10 {
				t.Fatalf("progress = %+v, want 3/10", doc.Progress)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed running progress (state %s, progress %+v)", doc.State, doc.Progress)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	done := pollDone(t, ts, j.ID)
	if _, hasProgress := done["progress"]; hasProgress {
		t.Error("terminal job document still carries progress")
	}
	if err := shutdownServer(s); err != nil {
		t.Fatal(err)
	}
}

// TestProgressTicksOnlyForLongJobs pins the flight recorder's progress
// rule: a job that finishes within progressTickAfter records no progress
// event, and one that runs longer records its quartiles from then on.
func TestProgressTicksOnlyForLongJobs(t *testing.T) {
	s, ts := newTestServer(t)
	ticks := func(hold time.Duration) int {
		release := make(chan struct{})
		j := s.store.add(KindLifetime, &progressParams{release: release}, "00000000deadbeef", nil, time.Now())
		if s.pool.Submit(j) != submitOK {
			t.Fatal("submit rejected")
		}
		time.Sleep(hold)
		close(release)
		pollDone(t, ts, j.ID)
		evs, _, _ := s.store.events(j.ID)
		n := 0
		for _, ev := range evs {
			if ev.Type == "progress" {
				n++
			}
		}
		return n
	}
	if n := ticks(0); n != 0 {
		t.Errorf("job released at once recorded %d progress events, want 0", n)
	}
	if n := ticks(progressTickAfter + 100*time.Millisecond); n < 1 || n > 4 {
		t.Errorf("job held past %v recorded %d progress events, want 1..4", progressTickAfter, n)
	}
	if err := shutdownServer(s); err != nil {
		t.Fatal(err)
	}
}

// TestProgressMeterSnapshots covers the meter's nil/empty edge cases.
func TestProgressMeterSnapshots(t *testing.T) {
	var nilMeter *jobProgress
	if nilMeter.snapshot() != nil {
		t.Error("nil meter must snapshot to nil")
	}
	var p jobProgress
	if p.snapshot() != nil {
		t.Error("unreported meter must snapshot to nil")
	}
	p.set(0, 100)
	snap := p.snapshot()
	if snap == nil || snap.Done != 0 || snap.Total != 100 {
		t.Errorf("snapshot = %+v, want 0/100", snap)
	}
	p.set(7, 0) // unknown total still reports done
	snap = p.snapshot()
	if snap == nil || snap.Done != 7 || snap.Total != 0 {
		t.Errorf("snapshot = %+v, want 7/0", snap)
	}
}
