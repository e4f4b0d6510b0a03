package server

import (
	"strings"
	"testing"
	"time"
)

// FuzzLoadSnapshot feeds arbitrary bytes to the crash-safety restore. It
// must never panic; whatever it restores must be terminal with a finish
// time, within the store and cache bounds; and the next issued job and
// sweep IDs must not collide with a restored one.
func FuzzLoadSnapshot(f *testing.F) {
	const (
		maxJobs      = 3
		cacheEntries = 2
	)
	for _, seed := range []string{
		`{"version": 1, "seq": 2, "jobs": [
			{"id": "j000001-0000feed", "kind": "lifetime", "state": "done", "cache_key": "0000feed",
			 "created": "2026-01-01T00:00:00Z", "finished": "2026-01-01T00:00:01Z", "params": {}, "result": {"n": 1}},
			{"id": "j000002-0000beef", "kind": "compression", "state": "failed", "error": "boom",
			 "created": "2026-01-01T00:00:00Z", "finished": "2026-01-01T00:00:02Z", "params": {}}],
		 "cache": [{"key": "a", "val": {"n": 1}}, {"key": "b", "val": 2}, {"key": "c", "val": 3}],
		 "job_events": {"j000001-0000feed": [{"time": "2026-01-01T00:00:00Z", "type": "created"}]},
		 "sweeps": [{"id": "s000007", "state": "canceled", "created": "2026-01-01T00:00:00Z",
			 "finished": "2026-01-01T00:00:03Z", "request": {}}],
		 "sweep_seq": 7}`,
		// Sequences missing or stale, so only the restored IDs say which
		// sequence numbers are taken.
		`{"version": 1, "jobs": [{"id": "j000009-00000000", "state": "done",
			"created": "2026-01-01T00:00:00Z", "finished": "2026-01-01T00:00:01Z"}],
		 "sweeps": [{"id": "s000001", "state": "done", "created": "2026-01-01T00:00:00Z",
			 "finished": "2026-01-01T00:00:01Z", "request": {}}], "sweep_seq": 0}`,
		// Live and unfinished entries, which restore must skip.
		`{"version": 1, "jobs": [
			{"id": "j000001-00000000", "state": "running", "finished": "2026-01-01T00:00:01Z"},
			{"id": "j000002-00000000", "state": "done"}],
		 "sweeps": [{"id": "s000001", "state": "queued", "finished": "2026-01-01T00:00:01Z", "request": {}},
			{"id": "s000002", "state": "done", "request": {}}]}`,
		// Duplicate and over-capacity entries.
		`{"version": 1, "jobs": [
			{"id": "j000003-00000000", "state": "done", "finished": "2026-01-01T00:00:01Z"},
			{"id": "j000003-00000000", "state": "failed", "finished": "2026-01-01T00:00:02Z"},
			{"id": "j000004-00000000", "state": "done", "finished": "2026-01-01T00:00:03Z"},
			{"id": "j000005-00000000", "state": "done", "finished": "2026-01-01T00:00:04Z"},
			{"id": "j000006-00000000", "state": "done", "finished": "2026-01-01T00:00:05Z"}]}`,
		`{"version": 999, "jobs": [], "cache": []}`,
		`{"version": 1, "jobs": [`,
		"\x00\x01garbage",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Server{
			store:  newStore(maxJobs, time.Hour),
			cache:  newResultCache(cacheEntries),
			sweeps: newSweepStore(time.Hour),
		}
		s.restoreSnapshot(data) // errors are fine; panics and half-trusted state are not

		jobIDs := map[string]bool{}
		s.store.each(func(j *Job) {
			jobIDs[j.ID] = true
			if !j.State.Terminal() || j.Finished == nil {
				t.Fatalf("restored job %q is %s, finished %v", j.ID, j.State, j.Finished)
			}
		})
		sweepIDs := map[string]bool{}
		s.sweeps.each(func(sw *sweepJob) {
			sweepIDs[sw.doc.ID] = true
			if !sw.doc.State.Terminal() || sw.doc.Finished == nil {
				t.Fatalf("restored sweep %q is %s, finished %v", sw.doc.ID, sw.doc.State, sw.doc.Finished)
			}
		})
		if n := s.store.size(); n > maxJobs {
			t.Fatalf("restored %d jobs, bound %d", n, maxJobs)
		}
		if n := s.sweeps.size(); n > maxSweeps {
			t.Fatalf("restored %d sweeps, bound %d", n, maxSweeps)
		}
		if n := s.cache.Len(); n > cacheEntries {
			t.Fatalf("restored %d cache entries, bound %d", n, cacheEntries)
		}

		// A job ID embeds its cache-key prefix, so issue one job under every
		// prefix a restored ID carries: each must get a fresh ID.
		keys := []string{"00000000"}
		for id := range jobIDs {
			if _, prefix, ok := strings.Cut(id, "-"); ok && len(prefix) == 8 {
				keys = append(keys, prefix)
			}
		}
		for _, key := range keys {
			j := s.store.add(KindLifetime, &blockParams{}, key, nil, time.Now())
			if jobIDs[j.ID] {
				t.Fatalf("new job reissued restored ID %q", j.ID)
			}
		}
		if sw := s.sweeps.add(testSweepRequest(t, 1), nil, "", "", time.Now()); sweepIDs[sw.doc.ID] {
			t.Fatalf("new sweep reissued restored ID %q", sw.doc.ID)
		}
	})
}
