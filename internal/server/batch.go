package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxBatchJobs bounds one POST /v1/jobs:batch request; a larger campaign
// splits into multiple batches (each atomic on its own).
const maxBatchJobs = 64

// batchJobSpec is one entry of a batch submission: a job kind plus its
// raw params document (decoded strictly against that kind's schema).
type batchJobSpec struct {
	Kind   Kind            `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// batchRequest is the POST /v1/jobs:batch body.
type batchRequest struct {
	Jobs []batchJobSpec `json:"jobs"`
}

// handleSubmitBatch implements POST /v1/jobs:batch with atomic
// validate-then-admit semantics: every entry is decoded, normalized, and
// content-addressed before anything is admitted, the tenant's quota is
// charged for the whole batch at once, and the uncached remainder is
// enqueued all-or-nothing on the tenant's fair queue — a batch never
// half-runs. Any validation failure is a 400 naming the offending index;
// a refused quota is a 429 with Retry-After; a full queue fails the
// batch's jobs and answers 503.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch is empty: want {\"jobs\": [{\"kind\": ..., \"params\": ...}, ...]}")
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d-job limit", len(req.Jobs), maxBatchJobs))
		return
	}

	// Phase 1 — validate everything before admitting anything.
	type validated struct {
		kind Kind
		p    params
		key  string
	}
	entries := make([]validated, 0, len(req.Jobs))
	for i, spec := range req.Jobs {
		factory, ok := paramsFor[spec.Kind]
		if !ok {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("jobs[%d]: unknown kind %q (want lifetime, failure-probability, or compression)", i, spec.Kind))
			return
		}
		p := factory()
		if len(spec.Params) > 0 {
			pdec := json.NewDecoder(bytes.NewReader(spec.Params))
			pdec.DisallowUnknownFields()
			if err := pdec.Decode(p); err != nil {
				writeError(w, http.StatusBadRequest,
					fmt.Sprintf("jobs[%d]: invalid params: %s", i, err.Error()))
				return
			}
		}
		if err := p.normalize(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("jobs[%d]: %s", i, err.Error()))
			return
		}
		key, err := cacheKey(spec.Kind, p)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		entries = append(entries, validated{kind: spec.Kind, p: p, key: key})
	}

	// Phase 2 — charge the tenant's quota for the whole batch at once. A
	// batch larger than the burst could never be admitted, so it is a
	// client error rather than an endless 429.
	now := time.Now()
	tn := s.tenantFrom(r)
	if _, burst, limited := tn.Quota(); limited && float64(len(entries)) > burst {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds tenant %q burst of %g", len(entries), tn.Name, burst))
		return
	}
	if hint, ok := tn.Take(now, float64(len(entries))); !ok {
		s.throttle(w, tn, hint)
		return
	}
	for range entries {
		s.metrics.tenantSubmitted(tn.Name)
	}

	// Phase 3 — admit. Cache hits finish instantly; the remainder is
	// enqueued all-or-nothing.
	jobs := make([]*Job, 0, len(entries))
	toRun := make([]*Job, 0, len(entries))
	for _, e := range entries {
		j := s.addJob(r, e.kind, e.p, e.key, tn, now)
		jobs = append(jobs, j)
		if cached, ok := s.cache.Get(e.key); ok {
			s.store.finishCached(j, cached, now)
			s.metrics.cacheHit()
			continue
		}
		s.metrics.cacheMiss()
		toRun = append(toRun, j)
	}
	if res := s.pool.SubmitBatch(toRun); res != submitOK {
		msg := "job queue full, retry later"
		cause := errors.New("job queue full")
		if res == submitClosed {
			msg = "server is draining"
			cause = errors.New("server is draining")
		}
		for _, j := range toRun {
			s.store.setFailed(j, cause, nil, now)
			s.metrics.jobRejected(res)
		}
		if res == submitQueueFull {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, http.StatusServiceUnavailable, msg)
		return
	}
	for range toRun {
		s.metrics.jobQueued()
	}

	docs := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		snap, _ := s.store.get(j.ID)
		docs = append(docs, snap)
	}
	status := http.StatusAccepted
	if len(toRun) == 0 {
		status = http.StatusOK // every entry answered from the cache
	}
	writeJSON(w, status, map[string]any{"jobs": docs, "count": len(docs)})
}
