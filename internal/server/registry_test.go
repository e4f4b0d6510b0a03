package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"pcmcomp/internal/cluster"
)

// testSweepRequest is a normalized one-seed sweep request for tests that
// drive the sweep store directly.
func testSweepRequest(t *testing.T, seed uint64) cluster.SweepRequest {
	t.Helper()
	req := cluster.SweepRequest{
		Kind:      "failure-probability",
		Params:    map[string]any{"scheme": "ecp", "window": 16, "max_errors": 1, "trials": 1},
		SeedStart: seed,
		SeedCount: 1,
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestSweepEvictionOrderAndTTL pins the sweep store to the job store's
// policy: past maxSweeps the oldest-*finished* terminal sweep is evicted
// (not the oldest-created one), live sweeps never are, and the
// housekeeping tick drops terminal sweeps older than JobTTL.
func TestSweepEvictionOrderAndTTL(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, JobTTL: time.Hour})
	defer shutdownServer(s)
	st := s.sweeps
	t0 := time.Now()
	add := func(i int) string {
		return st.add(testSweepRequest(t, uint64(i+1)), nil, "", "", t0.Add(time.Duration(i)*time.Millisecond)).doc.ID
	}

	// One sweep that stays live throughout, created first.
	live := add(0)
	// A full store's worth of sweeps that finish in reverse creation order,
	// so the first-created of them is the most recently finished.
	batch := make([]string, maxSweeps-1)
	for i := range batch {
		batch[i] = add(i + 1)
	}
	finished := t0.Add(time.Second)
	for i := len(batch) - 1; i >= 0; i-- {
		st.finish(batch[i], json.RawMessage(`{}`), nil, false, finished)
		finished = finished.Add(time.Millisecond)
	}
	// Three more sweeps push the store past its bound; one finishes.
	extra := []string{add(maxSweeps), add(maxSweeps + 1), add(maxSweeps + 2)}
	st.finish(extra[0], json.RawMessage(`{}`), nil, false, finished)

	if n := len(st.list()); n != maxSweeps {
		t.Fatalf("store holds %d sweeps after a finish past the bound, want %d", n, maxSweeps)
	}
	// The three earliest finishers are the last three created by the batch.
	for _, id := range batch[len(batch)-3:] {
		if _, ok := st.get(id); ok {
			t.Errorf("sweep %s, the earliest finished, survived eviction", id)
		}
	}
	for _, id := range append([]string{live, batch[0], batch[1]}, extra...) {
		if _, ok := st.get(id); !ok {
			t.Errorf("sweep %s evicted; want only the oldest-finished gone", id)
		}
	}

	// TTL: a terminal sweep that finished long ago is dropped by the
	// housekeeping tick; a live sweep created just as long ago is not.
	s2 := New(Config{Workers: 1, QueueDepth: 2, JobTTL: 40 * time.Millisecond})
	defer shutdownServer(s2)
	old := time.Now().Add(-time.Hour)
	stale := s2.sweeps.add(testSweepRequest(t, 1), nil, "", "", old).doc.ID
	running := s2.sweeps.add(testSweepRequest(t, 2), nil, "", "", old).doc.ID
	s2.sweeps.finish(stale, json.RawMessage(`{}`), nil, false, old)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s2.sweeps.get(stale); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("terminal sweep %s older than JobTTL never expired", stale)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := s2.sweeps.get(running); !ok {
		t.Fatal("live sweep expired under JobTTL")
	}
}

// TestRegistryBoundedSoak keeps submitting distinct cheap jobs and sweeps
// (result cache disabled, so every one runs) until both registries have
// sat at capacity for many rounds, and checks the bounds hold: neither
// registry grows past its capacity, evictions keep counting, and live
// heap stays within 2x of its size after the first fill.
func TestRegistryBoundedSoak(t *testing.T) {
	const (
		maxJobs  = 16
		perRound = 64 // sweeps per round; jobs per round is maxJobs
		rounds   = 16 // rounds after the sweep registry first fills
	)
	s := New(Config{Workers: 2, QueueDepth: 2 * maxJobs, MaxJobs: maxJobs, CacheEntries: -1, JobTimeout: time.Minute})
	defer shutdownServer(s)

	post := func(path, body string) string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body.String())
		}
		var doc struct{ ID string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return doc.ID
	}
	waitTerminal := func(terminal func() bool) {
		deadline := time.Now().Add(60 * time.Second)
		for !terminal() {
			if time.Now().After(deadline) {
				t.Fatal("submissions never finished")
			}
			time.Sleep(time.Millisecond)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	seed, jobsRun := 0, 0
	round := func() {
		jobs := make([]string, 0, maxJobs)
		sweeps := make([]string, 0, perRound)
		for i := 0; i < perRound; i++ {
			seed++
			if i < maxJobs {
				jobsRun++
				jobs = append(jobs, post("/v1/jobs/failure-probability", fmt.Sprintf(
					`{"scheme":"ecp","window":16,"max_errors":1,"trials":1,"seed":%d}`, seed)))
			}
			sweeps = append(sweeps, post("/v1/sweeps", fmt.Sprintf(
				`{"kind":"failure-probability","params":{"scheme":"ecp","window":16,"max_errors":1,"trials":1},"seed_start":%d,"seed_count":1}`, seed)))
		}
		// A registry may evict a just-finished handle, so a missing
		// document counts as finished.
		waitTerminal(func() bool {
			for _, id := range jobs {
				if j, ok := s.store.get(id); ok && !j.State.Terminal() {
					return false
				}
			}
			for _, id := range sweeps {
				if sw, ok := s.sweeps.get(id); ok && !sw.State.Terminal() {
					return false
				}
			}
			return true
		})
		if n := s.store.size(); n > maxJobs {
			t.Fatalf("job registry grew to %d, capacity %d", n, maxJobs)
		}
		if n := s.sweeps.size(); n > maxSweeps {
			t.Fatalf("sweep registry grew to %d, capacity %d", n, maxSweeps)
		}
	}

	for s.sweeps.size() < maxSweeps {
		round()
	}
	base := liveHeap()
	jobEvicted, sweepEvicted := s.store.evictedCount(), s.sweeps.evictedCount()
	for r := 0; r < rounds; r++ {
		round()
		je, se := s.store.evictedCount(), s.sweeps.evictedCount()
		if je <= jobEvicted || se <= sweepEvicted {
			t.Fatalf("round %d: evictions stalled (jobs %d -> %d, sweeps %d -> %d)",
				r, jobEvicted, je, sweepEvicted, se)
		}
		jobEvicted, sweepEvicted = je, se
	}
	if s.store.size() != maxJobs || s.sweeps.size() != maxSweeps {
		t.Fatalf("registries at %d jobs, %d sweeps; want full at %d, %d",
			s.store.size(), s.sweeps.size(), maxJobs, maxSweeps)
	}
	heap := liveHeap()
	t.Logf("evicted %d of %d jobs, %d of %d sweeps; live heap %d -> %d bytes",
		jobEvicted, jobsRun, sweepEvicted, seed, base, heap)
	if heap > 2*base {
		t.Fatalf("live heap grew from %d to %d bytes with both registries at capacity", base, heap)
	}
}
