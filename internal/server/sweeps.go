package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/obs"
)

// maxSweeps bounds the sweep registry; terminal sweeps are evicted
// oldest-finished-first beyond it (results stay reachable through the
// content cache).
const maxSweeps = 512

// SweepStatus is the client-visible document of one sweep: the request, the
// shard-level progress, and — once every shard has merged — the result.
type SweepStatus struct {
	ID          string               `json:"id"`
	State       State                `json:"state"`
	CacheHit    bool                 `json:"cache_hit"`
	Created     time.Time            `json:"created"`
	Finished    *time.Time           `json:"finished,omitempty"`
	Request     cluster.SweepRequest `json:"request"`
	ShardsDone  int                  `json:"shards_done"`
	ShardsTotal int                  `json:"shards_total"`
	Result      json.RawMessage      `json:"result,omitempty"`
	Error       string               `json:"error,omitempty"`
	// Tenant names the admission principal that submitted the sweep
	// (empty for sweeps restored from pre-tenancy snapshots).
	Tenant string `json:"tenant,omitempty"`
	// TraceID names the trace whose span tree covers this sweep's
	// coordination: dispatches, retries, hedges, and the remote execution
	// spans the backends report back. Fetch it from /debug/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// sweepJob pairs the document with its cancel handle and flight recorder.
type sweepJob struct {
	doc    SweepStatus
	cancel context.CancelCauseFunc
	// events is the sweep's flight-recorder timeline. Set at add/restore
	// and never replaced, so reads need no store lock.
	events *obs.Timeline
}

// sweepStore is the sweep registry: a registry of *sweepJob under the job
// store's policy — terminal sweeps are evicted oldest-finished-first
// beyond maxSweeps and expire after the job TTL — plus the sweep
// transitions.
type sweepStore struct {
	*registry[*sweepJob]
}

func newSweepStore(ttl time.Duration) *sweepStore {
	return &sweepStore{newRegistry[*sweepJob](maxSweeps, ttl)}
}

func (sw *sweepJob) docID() string           { return sw.doc.ID }
func (sw *sweepJob) docState() State         { return sw.doc.State }
func (sw *sweepJob) docFinished() *time.Time { return sw.doc.Finished }
func (sw *sweepJob) timeline() *obs.Timeline { return sw.events }

func (s *sweepStore) add(req cluster.SweepRequest, cancel context.CancelCauseFunc, traceID, tenantName string, now time.Time) *sweepJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	sw := &sweepJob{
		doc: SweepStatus{
			ID:          fmt.Sprintf("s%06d", s.seq),
			State:       StateQueued,
			Created:     now,
			Request:     req,
			ShardsTotal: req.ShardCount(),
			TraceID:     traceID,
			Tenant:      tenantName,
		},
		cancel: cancel,
		events: obs.NewTimeline(0),
	}
	fields := []string{"kind", req.Kind, "seeds", strconv.Itoa(req.SeedCount)}
	if len(req.Schemes) > 0 {
		// Specs contain commas, so the timeline field joins on ";".
		fields = append(fields, "schemes", strings.Join(req.Schemes, ";"))
	}
	if digest, ok := req.Params["trace"].(string); ok && digest != "" {
		fields = append(fields, "trace", digest)
	}
	sw.events.AddAt(now, "created", "", fields...)
	s.docs[sw.doc.ID] = sw
	return sw
}

// recordShardEvent appends one coordinator scheduling decision (dispatch,
// retry, hedge, completion) to the sweep's timeline.
func (s *sweepStore) recordShardEvent(id string, ev cluster.ShardEvent) {
	sw, ok := s.lookup(id)
	if !ok {
		return
	}
	fields := []string{
		"shard", strconv.Itoa(ev.Shard),
		"seed", strconv.FormatUint(ev.Seed, 10),
	}
	if ev.Scheme != "" {
		fields = append(fields, "scheme", ev.Scheme)
	}
	if ev.Backend != "" {
		fields = append(fields, "backend", ev.Backend)
	}
	if ev.Attempt > 0 {
		fields = append(fields, "attempt", strconv.Itoa(ev.Attempt))
	}
	if ev.Err != "" {
		fields = append(fields, "cause", ev.Err)
	}
	sw.events.AddAt(ev.Time, ev.Type, "", fields...)
}

func (s *sweepStore) get(id string) (SweepStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.docs[id]
	if !ok {
		return SweepStatus{}, false
	}
	return sw.doc, true
}

// list returns snapshots in creation order (Created, then ID, as the job
// list orders them).
func (s *sweepStore) list() []SweepStatus {
	var out []SweepStatus
	s.each(func(sw *sweepJob) { out = append(out, sw.doc) })
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.Before(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

func (s *sweepStore) setRunning(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw, ok := s.docs[id]; ok && sw.doc.State == StateQueued {
		sw.doc.State = StateRunning
		sw.events.Add("started", "handed to the coordinator")
	}
}

func (s *sweepStore) setProgress(id string, done int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw, ok := s.docs[id]; ok && done > sw.doc.ShardsDone {
		sw.doc.ShardsDone = done
	}
}

func (s *sweepStore) finish(id string, result json.RawMessage, err error, canceled bool, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.docs[id]
	if !ok {
		return
	}
	sw.cancel = nil
	sw.doc.Finished = &now
	switch {
	case canceled:
		sw.doc.State = StateCanceled
		sw.doc.Error = errJobCanceled.Error()
		sw.events.AddAt(now, "canceled", "")
	case err != nil:
		sw.doc.State = StateFailed
		sw.doc.Error = err.Error()
		sw.events.AddAt(now, "failed", "", "cause", err.Error())
	default:
		sw.doc.State = StateDone
		sw.doc.Result = result
		sw.doc.ShardsDone = sw.doc.ShardsTotal
		sw.events.AddAt(now, "merged", "shard results merged deterministically")
		sw.events.AddAt(now, "done", "")
	}
	s.markTerminalLocked(sw)
}

// finishCached completes a sweep immediately from a cached merged result.
func (s *sweepStore) finishCached(id string, result json.RawMessage, now time.Time) SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.docs[id]
	if !ok {
		return SweepStatus{}
	}
	sw.cancel = nil
	sw.doc.State = StateDone
	sw.doc.CacheHit = true
	sw.doc.Result = result
	sw.doc.ShardsDone = sw.doc.ShardsTotal
	sw.doc.Finished = &now
	sw.events.AddAt(now, "cache_hit", "answered from the result cache")
	sw.events.AddAt(now, "done", "")
	s.markTerminalLocked(sw)
	return sw.doc
}

// cancel requests cancellation; same outcome classification as job cancel.
func (s *sweepStore) cancelSweep(id string) (SweepStatus, cancelOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.docs[id]
	if !ok {
		return SweepStatus{}, cancelUnknown
	}
	if sw.doc.State.Terminal() {
		return sw.doc, cancelTerminal
	}
	if sw.cancel != nil {
		sw.cancel(errJobCanceled)
	}
	sw.events.Add("cancel_requested", "client cancel; unwinding in-flight shards")
	return sw.doc, cancelRunning
}

// export returns the terminal sweep documents in eviction order, their
// timelines, and the ID sequence, for snapshotting.
func (s *sweepStore) export() ([]SweepStatus, map[string][]obs.Event, uint64) {
	var out []SweepStatus
	events, seq := s.registry.export(func(sw *sweepJob) { out = append(out, sw.doc) })
	return out, events, seq
}

// restore reinstates snapshotted terminal sweeps.
func (s *sweepStore) restore(sweeps []SweepStatus, events map[string][]obs.Event, seq uint64) {
	docs := make([]*sweepJob, len(sweeps))
	for i, doc := range sweeps {
		docs[i] = &sweepJob{doc: doc, events: obs.NewTimeline(0)}
	}
	s.registry.restore(docs, events, seq)
}

// normalizeSweep normalizes a sweep request and decodes its first shard's
// params as the shards' job route will, so params a backend would reject
// (an unknown scheme, a malformed trace digest) get their 400 now instead
// of failing the first shard of a queued sweep. It leaves the request as
// Normalize does, so the sweep's cache key does not change.
func normalizeSweep(req *cluster.SweepRequest) error {
	if err := req.Normalize(); err != nil {
		return err
	}
	shard, err := req.FirstShardParams()
	if err != nil {
		return err
	}
	_, err = decodeParams(Kind(req.Kind), shard)
	return err
}

// sweepCacheKey content-addresses a normalized sweep request, so an
// identical sweep — sharded or not — is answered from the result cache.
func sweepCacheKey(req cluster.SweepRequest) (string, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte("sweep"))
	h.Write([]byte{'\n'})
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// handleSubmitSweep implements POST /v1/sweeps: validate, answer from the
// content-addressed cache when the identical sweep has already run, and
// otherwise hand the request to the cluster coordinator on a background
// goroutine. The response is the sweep document; poll GET /v1/sweeps/{id}
// for shard progress and the merged result.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req cluster.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if err := normalizeSweep(&req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := sweepCacheKey(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	now := time.Now()
	tn := s.tenantFrom(r)
	// One sweep charges one quota token, same as a job submission: the
	// bucket protects admission, while the sweep's shards compete through
	// the coordinator's own concurrency bound.
	if hint, ok := tn.Take(now, 1); !ok {
		s.throttle(w, tn, hint)
		return
	}
	s.metrics.tenantSubmitted(tn.Name)

	ctx, cancel := context.WithCancelCause(s.jobCtx)
	// The sweep span roots the trace (or joins the submitter's, when the
	// request carried propagation headers). It is opened synchronously so
	// the 202 document already names its trace; it ends when the
	// coordinator goroutine finishes.
	ctx = obs.WithRemoteParent(ctx, obs.RemoteParent(r.Context()))
	ctx, span := obs.Start(ctx, "sweep")
	sw := s.sweeps.add(req, cancel, span.Context().TraceID, tn.Name, now)
	id := sw.doc.ID
	span.SetAttr("sweep_id", id)
	span.SetAttr("kind", req.Kind)
	span.SetAttr("seeds", strconv.Itoa(req.SeedCount))
	if len(req.Schemes) > 0 {
		span.SetAttr("schemes", strings.Join(req.Schemes, ";"))
	}
	sweepLog := s.log.With("sweep_id", id, "kind", req.Kind, "trace_id", span.Context().TraceID)
	ctx = obs.WithLogger(ctx, sweepLog)

	if cached, ok := s.cache.Get(key); ok {
		cancel(nil)
		span.SetAttr("cache_hit", "true")
		span.End()
		doc := s.sweeps.finishCached(id, cached, now)
		s.metrics.cacheHit()
		writeJSON(w, http.StatusOK, doc)
		return
	}
	s.metrics.cacheMiss()

	s.metrics.sweepStarted()
	sweepLog.Info("sweep accepted", "seeds", req.SeedCount)
	// The coordinator re-normalizes the request it is handed, writing the
	// Schemes entries in place; the stored sweep document shares this
	// request's backing stores and is marshaled concurrently (the 202
	// response below, GET /v1/sweeps pollers). Hand the coordinator its
	// own copies so the idempotent rewrite cannot race a reader.
	coordReq := req
	coordReq.Schemes = append([]string(nil), req.Schemes...)
	if req.Params != nil {
		coordReq.Params = make(map[string]any, len(req.Params))
		for k, v := range req.Params {
			coordReq.Params[k] = v
		}
	}
	s.sweepWG.Add(1)
	go func() {
		defer s.sweepWG.Done()
		defer cancel(nil)
		s.sweeps.setRunning(id)
		res, err := s.coord.SweepWithHooks(ctx, coordReq, cluster.SweepHooks{
			OnProgress: func(done, total int) { s.sweeps.setProgress(id, done) },
			OnEvent:    func(ev cluster.ShardEvent) { s.sweeps.recordShardEvent(id, ev) },
		})
		finished := time.Now()
		canceled := errors.Is(context.Cause(ctx), errJobCanceled)
		var buf json.RawMessage
		if err == nil {
			buf, err = json.Marshal(res)
		}
		if err == nil && !canceled {
			s.cache.Put(key, buf)
		}
		span.SetError(err)
		span.End()
		s.sweeps.finish(id, buf, err, canceled, finished)
		s.metrics.sweepFinished(err, canceled)
		if err == nil && !canceled {
			s.metrics.sweepSchemesDone(req.Schemes)
		}
		switch {
		case canceled:
			sweepLog.Info("sweep canceled", "elapsed", finished.Sub(now))
		case err != nil:
			sweepLog.Warn("sweep failed", "err", err, "elapsed", finished.Sub(now))
		default:
			sweepLog.Info("sweep done", "elapsed", finished.Sub(now))
		}
	}()

	doc, _ := s.sweeps.get(id)
	writeJSON(w, http.StatusAccepted, doc)
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.sweeps.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such sweep")
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// sweepSummary is the list view of a sweep (no result payload).
type sweepSummary struct {
	ID          string     `json:"id"`
	State       State      `json:"state"`
	Kind        string     `json:"kind"`
	SeedStart   uint64     `json:"seed_start"`
	SeedCount   int        `json:"seed_count"`
	Schemes     []string   `json:"schemes,omitempty"`
	ShardsDone  int        `json:"shards_done"`
	ShardsTotal int        `json:"shards_total"`
	Created     time.Time  `json:"created"`
	Finished    *time.Time `json:"finished,omitempty"`
	Error       string     `json:"error,omitempty"`
}

func (s *Server) handleListSweeps(w http.ResponseWriter, _ *http.Request) {
	sweeps := s.sweeps.list()
	out := make([]sweepSummary, 0, len(sweeps))
	for _, sw := range sweeps {
		out = append(out, sweepSummary{
			ID: sw.ID, State: sw.State, Kind: sw.Request.Kind,
			SeedStart: sw.Request.SeedStart, SeedCount: sw.Request.SeedCount,
			Schemes:    sw.Request.Schemes,
			ShardsDone: sw.ShardsDone, ShardsTotal: sw.ShardsTotal,
			Created: sw.Created, Finished: sw.Finished, Error: sw.Error,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

// handleCancelSweep implements DELETE /v1/sweeps/{id}: the sweep's context
// is canceled, which unwinds in-flight shards (and DELETEs their remote
// jobs) before the sweep lands in the canceled state.
func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	doc, outcome := s.sweeps.cancelSweep(r.PathValue("id"))
	switch outcome {
	case cancelUnknown:
		writeError(w, http.StatusNotFound, "no such sweep")
	case cancelTerminal:
		writeError(w, http.StatusConflict, fmt.Sprintf("sweep is already %s", doc.State))
	default:
		writeJSON(w, http.StatusAccepted, doc)
	}
}

// handleBackends implements GET /v1/backends: the coordinator's view of the
// fleet — health and in-flight shards per backend.
func (s *Server) handleBackends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"backends": s.coord.Backends()})
}
