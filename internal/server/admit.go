package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pcmcomp/internal/obs"
	"pcmcomp/internal/tenant"
)

// Request-body bounds of the submission routes: a job or sweep document is
// small, a batch carries up to maxBatchJobs of them. A larger body is
// refused with 413.
const (
	maxSubmitBody = 1 << 20
	maxBatchBody  = 4 << 20
)

// maxBatchJobs bounds one POST /v1/jobs:batch request; a larger campaign
// splits into multiple batches (each atomic on its own).
const maxBatchJobs = 64

// jobSpec is one job submission: a kind plus its raw params document,
// decoded strictly against that kind's schema by decodeParams. A batch
// entry names both; POST /v1/jobs/{kind} takes the kind from its route and
// the params from its body.
type jobSpec struct {
	Kind   Kind            `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// batchRequest is the POST /v1/jobs:batch body.
type batchRequest struct {
	Jobs []jobSpec `json:"jobs"`
}

// errTrailingData refuses a document followed by more input, which a
// json.Decoder would otherwise leave unread.
var errTrailingData = errors.New("unexpected data after the JSON document")

// decodeStrict decodes the one JSON document in raw into v: an unknown
// field or anything but whitespace after the document is an error, and
// empty input is io.EOF.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// readBody is the first step of every upload and submission: refuse while
// the server drains (503), then read the body, bounded at limit bytes (413
// past it, 400 when the read fails).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return body, true
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", limit))
	} else {
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
	}
	return nil, false
}

// decodeBody reads a request body (readBody) and decodes it strictly into
// v (400 when it does not decode); an empty body leaves v as it is.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, ok := s.readBody(w, r, limit)
	if !ok {
		return false
	}
	if err := decodeStrict(body, v); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// chargeQuota charges n submissions to the request's tenant. Every valid
// submission is charged, cache hits included, because admission control
// protects the front door, not just the workers. More than the tenant's
// burst could never be admitted, so it is a 400 rather than an endless 429.
func (s *Server) chargeQuota(w http.ResponseWriter, r *http.Request, n int, now time.Time) (*tenant.Tenant, bool) {
	tn := s.tenantFrom(r)
	if _, burst, limited := tn.Quota(); limited && float64(n) > burst {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds tenant %q burst of %g", n, tn.Name, burst))
		return nil, false
	}
	if hint, ok := tn.Take(now, float64(n)); !ok {
		s.throttle(w, tn, hint, "submission")
		return nil, false
	}
	s.metrics.tenantSubmitted(tn.Name, n)
	return tn, true
}

// throttle refuses a rate-limited request with 429 and a Retry-After hint
// from the tenant's bucket, in whole seconds and at least 1. quota names
// the bucket: "submission" or "trace byte".
func (s *Server) throttle(w http.ResponseWriter, tn *tenant.Tenant, hint time.Duration, quota string) {
	s.metrics.tenantThrottled(tn.Name)
	secs := max(1, int((hint+time.Second-1)/time.Second))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests,
		fmt.Sprintf("tenant %q %s quota exhausted, retry in %ds", tn.Name, quota, secs))
}

// cached probes the result cache. The hit or miss is counted here, where
// the cache is consulted, so the pair sums to the probes even when the
// submission is refused afterwards.
func (s *Server) cached(key string) (json.RawMessage, bool) {
	res, ok := s.cache.Get(key)
	s.metrics.cacheProbed(ok)
	return res, ok
}

// addJob records one validated submission and applies the request's
// propagation headers. A coordinator that dispatched a trace-driven shard
// names where to fetch the data trace if the local store lacks it, and
// marks every shard so that it may release the job once finished; a
// submitter that propagated a trace (a coordinator's dispatch span, a
// client's own span) has the job's execution join it instead of rooting
// its own. A trace-driven job shares the trace store's digest string.
func (s *Server) addJob(r *http.Request, kind Kind, p params, key string, tn *tenant.Tenant, now time.Time) *Job {
	if t, ok := p.(traced); ok {
		d := t.traceDigest()
		*d = s.traces.Intern(*d)
	}
	j := s.store.add(kind, p, key, tn, now)
	if src := r.Header.Get("X-Trace-Source"); src != "" && j.TraceDigest != "" {
		s.store.setTraceSource(j, src)
	}
	if r.Header.Get("X-Sweep-Shard") != "" {
		s.store.markShard(j)
	}
	if rp := obs.RemoteParent(r.Context()); rp.TraceID != "" {
		s.store.adoptTrace(j, rp)
	}
	return j
}

// submitHandler builds POST /v1/jobs/{kind}: a batch of one, whose body is
// the params document.
func (s *Server) submitHandler(kind Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if body, ok := s.readBody(w, r, maxSubmitBody); ok {
			s.admitJobs(w, r, []jobSpec{{Kind: kind, Params: body}}, false)
		}
	}
}

// handleSubmitBatch implements POST /v1/jobs:batch.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeBody(w, r, maxBatchBody, &req) {
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
	s.admitJobs(w, r, req.Jobs, true)
}

// admitJobs is the one admission path of job submissions, single and
// batch alike. It validates every entry before admitting any: decode and
// normalize the params (decodeParams), then content-address them. It
// charges the tenant's quota for all entries at once, answers cached
// entries from the result cache, and enqueues the rest all-or-nothing on
// the tenant's fair queue, so a batch never half-runs. A validation
// failure is a 400, naming the entry's index in a batch; a refused quota
// is a 429 with Retry-After; a full or closing queue fails the uncached
// jobs and answers 503. Only the response differs by route: one job
// document, or {"jobs", "count"} for a batch, 200 when the cache answered
// every entry and 202 otherwise.
func (s *Server) admitJobs(w http.ResponseWriter, r *http.Request, specs []jobSpec, batch bool) {
	type entry struct {
		p   params
		key string
		job *Job
	}
	// Constant capacities keep both slices off the heap.
	entries := make([]entry, 0, maxBatchJobs)
	for i, spec := range specs {
		p, err := decodeParams(spec.Kind, spec.Params)
		if err != nil {
			if batch {
				err = fmt.Errorf("jobs[%d]: %w", i, err)
			}
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		key, err := cacheKey(spec.Kind, p)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		entries = append(entries, entry{p: p, key: key})
	}
	now := time.Now()
	tn, ok := s.chargeQuota(w, r, len(entries), now)
	if !ok {
		return
	}
	toRun := make([]*Job, 0, maxBatchJobs)
	for i := range entries {
		e := &entries[i]
		e.job = s.addJob(r, specs[i].Kind, e.p, e.key, tn, now)
		if res, hit := s.cached(e.key); hit {
			s.store.finishCached(e.job, res, now)
		} else {
			toRun = append(toRun, e.job)
		}
	}
	if res := s.pool.Submit(toRun...); res != submitOK {
		// A full queue is transient (back off and retry); a closed one means
		// the process is draining for shutdown.
		cause, msg := "server is draining", "server is draining"
		if res == submitQueueFull {
			cause, msg = "job queue full", "job queue full, retry later"
			w.Header().Set("Retry-After", "1")
		}
		err := errors.New(cause)
		for _, j := range toRun {
			s.store.setFailed(j, err, nil, now)
		}
		s.metrics.jobsRejected(res, len(toRun))
		writeError(w, http.StatusServiceUnavailable, msg)
		return
	}
	s.metrics.jobsQueued(len(toRun))

	status := http.StatusAccepted
	if len(toRun) == 0 {
		status = http.StatusOK // every entry answered from the cache
	}
	if !batch {
		j := entries[0].job
		if status == http.StatusAccepted {
			obs.Logger(r.Context()).Info("job accepted", "job_id", j.ID, "kind", string(j.Kind), "job_trace_id", j.TraceID)
		}
		doc, _ := s.store.get(j.ID)
		writeJSON(w, status, doc)
		return
	}
	docs := make([]Job, len(entries))
	for i, e := range entries {
		docs[i], _ = s.store.get(e.job.ID)
	}
	writeJSON(w, status, map[string]any{"jobs": docs, "count": len(docs)})
}
