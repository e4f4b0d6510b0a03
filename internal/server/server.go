// Package server implements pcmd, the HTTP/JSON simulation service: the
// repository's three expensive computations (trace-driven lifetime runs,
// Fig 9 Monte-Carlo failure-probability curves, compression sweeps) exposed
// as asynchronous jobs on a bounded worker pool, with a content-addressed
// LRU result cache so identical sweeps are answered instantly.
//
// Endpoints:
//
//	POST   /v1/jobs/lifetime             submit a lifetime job
//	POST   /v1/jobs/failure-probability  submit a Fig 9 Monte-Carlo job
//	POST   /v1/jobs/compression          submit a compression sweep job
//	POST   /v1/jobs:batch                submit up to 64 jobs atomically
//	GET    /v1/jobs/{id}                 poll a job's status, progress, and result
//	DELETE /v1/jobs/{id}                 cancel a queued or running job; release a finished sweep shard
//	GET    /v1/jobs                      list job summaries (?state=&limit=&offset=)
//	POST   /v1/sweeps                    submit a seed-sharded distributed sweep
//	GET    /v1/sweeps/{id}               poll a sweep's shard progress and merged result
//	GET    /v1/sweeps                    list sweep summaries
//	DELETE /v1/sweeps/{id}               cancel a running sweep
//	POST   /v1/traces                    upload a write-back trace (content-addressed)
//	GET    /v1/traces                    list stored traces
//	GET    /v1/traces/{digest}           trace metadata (?download=1 for the bytes)
//	DELETE /v1/traces/{digest}           delete a stored trace
//	GET    /v1/backends                  the coordinator's fleet view (health, load)
//	GET    /v1/fleet/status              aggregated fleet health snapshot (?watch=1 streams SSE)
//	GET    /v1/workloads                 list the Table III workload models
//	GET    /v1/schemes                   list the hard-error schemes
//	GET    /healthz                      liveness (503 while draining)
//	GET    /metrics                      Prometheus text metrics
//
// Every submission passes one admission path (admit.go): drain check,
// bounded body read (413 past the route's bound), strict decode (no
// unknown fields, nothing after the document), normalize, content key,
// tenant quota, cache probe, admit. POST /v1/jobs/{kind} is a batch of one
// through the same admitJobs as POST /v1/jobs:batch; POST /v1/sweeps
// shares every step before its own coordinator hand-off.
//
// Jobs are validated against internal/config scales, hashed (SHA-256 of
// kind + canonical JSON of the normalized parameters + seed) into the
// cache, and executed with a per-job context deadline. Jobs move
// queued -> running -> done|failed|canceled; the store is bounded (TTL +
// capacity eviction of terminal jobs) and, with a snapshot path
// configured, terminal jobs and the result cache survive restarts.
// Shutdown drains: admission stops with 503s while queued and running
// jobs finish, then the final snapshot is written.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/experiments"
	"pcmcomp/internal/fleetobs"
	"pcmcomp/internal/obs"
	"pcmcomp/internal/scheme"
	"pcmcomp/internal/tenant"
	"pcmcomp/internal/tracestore"
	"pcmcomp/internal/workload"
)

// Config parameterizes the service.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds waiting jobs; a full queue rejects submissions
	// with 503 (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 256; 0 keeps the
	// default, negative disables caching).
	CacheEntries int
	// JobTimeout is the per-job execution deadline (default 15 minutes).
	JobTimeout time.Duration
	// MaxJobs bounds the job store: once exceeded, terminal jobs are
	// evicted oldest-finished-first (default 4096). Evicted results stay
	// reachable through the cache under their content address.
	MaxJobs int
	// JobTTL is how long a terminal job's or sweep's handle stays pollable
	// after it finishes (default 1 hour).
	JobTTL time.Duration
	// SnapshotPath, when non-empty, enables crash-safe persistence: the
	// terminal jobs and result cache are restored from this file on
	// startup and written back periodically and on shutdown.
	SnapshotPath string
	// Peers lists the base URLs of remote pcmd backends for coordinator
	// mode: POST /v1/sweeps shards work across them. Empty means local
	// mode — sweeps run on an in-process loopback backend, so a peerless
	// pcmd degrades gracefully to single-node execution.
	Peers []string
	// HealthInterval is the peer health-probe cadence (default 15s; only
	// meaningful with peers).
	HealthInterval time.Duration
	// Logger receives the service's structured logs (access lines, job
	// lifecycle, shard scheduling). Nil discards them, keeping tests and
	// embedded uses quiet.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default — profiles expose internals, so exposure is an explicit
	// operator decision).
	EnablePprof bool
	// Tenants is the multi-tenant front door's registry: API keys, per
	// tenant token-bucket submission quotas, and fair-queueing weights.
	// Nil builds a registry with only the unlimited anonymous tenant, so
	// a keyless deployment behaves exactly as before multi-tenancy
	// existed.
	Tenants *tenant.Registry
	// TraceDir is the trace store's spool directory; empty keeps uploaded
	// traces in memory only (they vanish on restart).
	TraceDir string
	// TraceMaxBytes bounds the trace store's total canonical bytes
	// (default 1 GiB); traces unused for the store's 7-day TTL expire.
	TraceMaxBytes int64
	// TraceByteRate/TraceByteBurst, when rate > 0, impose a per-tenant
	// upload byte quota (bytes/sec refill, burst bucket depth) on every
	// registry tenant, anonymous included.
	TraceByteRate  float64
	TraceByteBurst float64
	// AdvertiseURL is this coordinator's own base URL as backends can
	// reach it (e.g. "http://coord:8080"). Sweep shards dispatched to HTTP
	// backends carry it as X-Trace-Source, so a backend missing a trace
	// digest knows where to fetch it from.
	AdvertiseURL string
	// ScrapeInterval is the fleet health plane's scrape cadence: this
	// server periodically reads its own /metrics (in-process) plus every
	// peer's, folding the samples into GET /v1/fleet/status (default 5s;
	// negative disables the plane entirely).
	ScrapeInterval time.Duration
	// LogSampleQPS rate-limits per-route access-log lines to this many
	// per second (token bucket per route). 0 logs everything; error
	// responses (status >= 400) always log regardless.
	LogSampleQPS float64
}

// Fixed service policy: each has one value in use, so none is a Config
// field.
const (
	// snapshotInterval is the periodic snapshot cadence (with
	// SnapshotPath set).
	snapshotInterval = time.Minute
	// sweepHedgeAfter is the straggler-shard hedging delay: a shard still
	// running after this long is duplicated on a second backend and the
	// first result wins. Local mode has no second backend and never hedges.
	sweepHedgeAfter = 30 * time.Second
	// sseHeartbeat is the idle-comment cadence on streaming /events
	// responses, keeping proxies from reaping quiet connections.
	sseHeartbeat = 15 * time.Second
	// sseBuffer is a stream's live-event buffer. The reader drains it as
	// soon as it is scheduled, so it only has to hold one burst: a job's
	// whole timeline is under a dozen events, and a sweep's largest burst
	// is its first wave of shard dispatches (the coordinator keeps twice
	// the backend count in flight). A reader that still falls behind gets
	// ": events dropped" and resumes with Last-Event-ID.
	sseBuffer = 32
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.JobTTL <= 0 {
		c.JobTTL = time.Hour
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 15 * time.Second
	}
	if c.Tenants == nil {
		// Only the error paths are tenant validation; with no tenants
		// there is nothing to invalidate.
		c.Tenants, _ = tenant.NewRegistry(nil, 0, 0)
	}
	return c
}

// Server is the pcmd service: an http.Handler plus the pool, store, cache
// and metrics behind it. Create with New, serve with any http.Server, stop
// with Shutdown.
type Server struct {
	cfg        Config
	store      *store
	cache      *resultCache
	metrics    *metrics
	pool       *pool
	mux        *http.ServeMux
	jobCtx     context.Context
	cancelJobs context.CancelFunc
	drain      chan struct{} // closed when draining begins
	hkStop     chan struct{} // closed to stop the housekeeping loop
	hkDone     chan struct{} // closed when the housekeeping loop exits
	restoreErr error         // startup snapshot problem, if any

	log     *slog.Logger // structured log sink (never nil; nop by default)
	ring    *obs.Ring    // completed-trace ring behind /debug/traces
	started time.Time    // process start, for the uptime gauge
	tenants *tenant.Registry
	traces  *tracestore.Store // content-addressed uploaded traces

	// Distributed-sweep coordinator (see internal/cluster): remote peers
	// in coordinator mode, an in-process loopback backend otherwise.
	coord      *cluster.Coordinator
	sweeps     *sweepStore
	sweepWG    sync.WaitGroup     // running sweep goroutines, for drain
	stopHealth context.CancelFunc // stops the peer health-probe loop

	// Fleet health plane (see internal/fleetobs): the scrape loop behind
	// GET /v1/fleet/status. Nil when disabled.
	fleet *fleetobs.Plane
	// logSample throttles per-route access logging; nil logs everything.
	logSample *logSampler
}

// New builds the service and starts its worker pool. When a snapshot path
// is configured, the previous run's terminal jobs and result cache are
// restored before the first request is served; a corrupt or
// version-mismatched snapshot is refused and reported by RestoreError.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   newStore(cfg.MaxJobs, cfg.JobTTL),
		cache:   newResultCache(cfg.CacheEntries),
		metrics: newMetrics(),
		drain:   make(chan struct{}),
		hkStop:  make(chan struct{}),
		hkDone:  make(chan struct{}),
		log:     cfg.Logger,
		ring:    obs.NewRing(0),
		started: time.Now(),
		tenants: cfg.Tenants,
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.sweeps = newSweepStore(cfg.JobTTL)
	s.restoreErr = s.loadSnapshot()
	traces, err := tracestore.Open(tracestore.Options{
		Dir: cfg.TraceDir, MaxBytes: cfg.TraceMaxBytes,
	})
	if err != nil {
		// A broken spool directory must not keep the service down: fall
		// back to memory-only and surface the problem via RestoreError.
		traces, _ = tracestore.Open(tracestore.Options{MaxBytes: cfg.TraceMaxBytes})
		s.restoreErr = errors.Join(s.restoreErr, err)
	}
	s.traces = traces
	if cfg.TraceByteRate > 0 {
		for _, tn := range s.tenants.Tenants() {
			tn.SetByteQuota(cfg.TraceByteRate, cfg.TraceByteBurst)
		}
	}
	// Workers and sweep goroutines inherit the ring and logger through
	// jobCtx, so spans they start record into /debug/traces and their logs
	// carry through even off the request path.
	s.jobCtx, s.cancelJobs = context.WithCancel(
		obs.WithLogger(obs.WithRing(context.Background(), s.ring), s.log))
	s.logSample = newLogSampler(cfg.LogSampleQPS)
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.execute, s.jobPanicked)
	s.initCoordinator()
	s.initFleet()
	go s.housekeeping()

	mux := http.NewServeMux()
	s.route(mux, "POST /v1/jobs/lifetime", s.submitHandler(KindLifetime))
	s.route(mux, "POST /v1/jobs/failure-probability", s.submitHandler(KindFailureProbability))
	s.route(mux, "POST /v1/jobs/compression", s.submitHandler(KindCompression))
	s.route(mux, "POST /v1/jobs:batch", s.handleSubmitBatch)
	s.route(mux, "GET /v1/jobs/{id}", s.handleGetJob)
	s.route(mux, "GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.route(mux, "DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.route(mux, "GET /v1/jobs", s.handleListJobs)
	s.route(mux, "POST /v1/sweeps", s.handleSubmitSweep)
	s.route(mux, "GET /v1/sweeps", s.handleListSweeps)
	s.route(mux, "GET /v1/sweeps/{id}", s.handleGetSweep)
	s.route(mux, "GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.route(mux, "DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	s.route(mux, "POST /v1/traces", s.handleUploadTrace)
	s.route(mux, "GET /v1/traces", s.handleListDataTraces)
	s.route(mux, "GET /v1/traces/{digest}", s.handleGetDataTrace)
	s.route(mux, "DELETE /v1/traces/{digest}", s.handleDeleteDataTrace)
	s.route(mux, "GET /v1/backends", s.handleBackends)
	s.route(mux, "GET /v1/fleet/status", s.handleFleetStatus)
	s.route(mux, "GET /v1/workloads", s.handleWorkloads)
	s.route(mux, "GET /v1/schemes", s.handleSchemes)
	s.route(mux, "GET /healthz", s.handleHealthz)
	s.route(mux, "GET /metrics", s.handleMetrics)
	s.route(mux, "GET /debug/traces", s.handleListTraces)
	s.route(mux, "GET /debug/traces/{id}", s.handleGetTrace)
	if cfg.EnablePprof {
		// Raw registrations: the pprof handlers manage their own routing
		// under the prefix, and profile downloads would only skew the
		// request-latency histograms.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// initCoordinator builds the sweep coordinator: HTTP backends for the
// configured peers, or an in-process loopback running ExecuteLocal when
// there are none. With peers, a health loop probes the fleet so a dead
// backend is sidelined between sweeps.
func (s *Server) initCoordinator() {
	var backends []cluster.Backend
	hedge := sweepHedgeAfter
	if len(s.cfg.Peers) > 0 {
		for _, peer := range s.cfg.Peers {
			b := cluster.NewHTTPBackend(peer)
			// Shards dispatched over HTTP advertise this coordinator as the
			// place to fetch trace digests the backend has never seen.
			b.Client.TraceSource = s.cfg.AdvertiseURL
			backends = append(backends, b)
		}
	} else {
		backends = append(backends, cluster.NewLoopback("local",
			func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
				// The loopback runs in-process: trace digests resolve straight
				// from this server's own store.
				return ExecuteLocal(tracestore.WithResolver(ctx, s.traces), Kind(kind), params)
			}))
		hedge = 0 // one backend: nothing to hedge onto
	}
	coord, err := cluster.New(backends, cluster.Options{
		ShardTimeout: s.cfg.JobTimeout,
		HedgeAfter:   hedge,
		Concurrency:  max(s.cfg.Workers, 2*len(backends)),
	})
	if err != nil {
		panic(err) // unreachable: backends is never empty
	}
	s.coord = coord
	hctx, cancel := context.WithCancel(context.Background())
	s.stopHealth = cancel
	if len(s.cfg.Peers) > 0 {
		go s.coord.HealthLoop(hctx, s.cfg.HealthInterval)
	}
}

// RestoreError reports what went wrong restoring the startup snapshot, or
// nil if there was no snapshot or it loaded cleanly. The server is usable
// either way — a refused snapshot just means an empty store.
func (s *Server) RestoreError() error { return s.restoreErr }

// housekeeping is the background loop behind the store bounds and the
// snapshot cadence: every tick it expires terminal jobs and sweeps and, when
// persistence is on, writes a snapshot. It exits when Shutdown begins
// (Shutdown writes the final snapshot itself, after the drain).
func (s *Server) housekeeping() {
	defer close(s.hkDone)
	// Sweep often enough that a TTL expiry is observed promptly even when
	// the TTL is much shorter than the snapshot interval (tests use
	// millisecond TTLs).
	interval := snapshotInterval
	if s.cfg.JobTTL/4 < interval {
		interval = s.cfg.JobTTL / 4
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-s.hkStop:
			return
		case now := <-ticker.C:
			s.store.expire(now)
			s.sweeps.expire(now)
			s.traces.Sweep(now)
			if s.cfg.SnapshotPath != "" && now.Sub(last) >= snapshotInterval {
				last = now
				_ = s.SaveSnapshot() // a failed periodic write retries next tick
			}
		}
	}
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// Shutdown drains the service: new submissions are rejected with 503,
// queued and running jobs finish, and the call returns once the pool is
// idle and the final snapshot (when configured) is on disk. If the
// context expires first, running jobs are cancelled through their
// contexts and Shutdown waits for them to unwind before returning the
// context's error — the snapshot is still written, capturing everything
// that finished. Idempotent is not required — call once.
func (s *Server) Shutdown(ctx context.Context) error {
	close(s.drain)
	close(s.hkStop)
	s.stopHealth()
	if s.fleet != nil {
		// Stop scraping before the drain: the plane waits out its loop,
		// so no scrape touches the pool or coordinator after they unwind.
		s.fleet.Close()
	}
	s.pool.Close()
	drainErr := s.pool.Wait(ctx)
	if drainErr == nil {
		drainErr = s.waitSweeps(ctx)
	}
	if drainErr != nil {
		s.cancelJobs()
		_ = s.pool.Wait(context.Background())
		s.sweepWG.Wait()
	}
	<-s.hkDone
	if err := s.SaveSnapshot(); err != nil && drainErr == nil {
		return err
	}
	return drainErr
}

// waitSweeps blocks until every sweep goroutine has finished or the
// context expires. Sweeps drain like jobs: submissions already stopped, so
// the wait is bounded by the shards in flight.
func (s *Server) waitSweeps(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.sweepWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// execute runs one job on a pool worker under the per-job deadline. The
// job's context is cancelable two ways — the deadline (timeout -> failed)
// and DELETE /v1/jobs/{id} (errJobCanceled cause -> canceled) — and both
// unwind through the simulation's own context polls (lifetime.RunContext
// checks every CheckEvery writes, montecarlo every few thousand trials),
// so a canceled job frees its worker mid-run.
func (s *Server) execute(j *Job) {
	start := time.Now()
	tctx, cancelTimeout := context.WithTimeout(s.jobCtx, s.cfg.JobTimeout)
	defer cancelTimeout()
	ctx, cancelCause := context.WithCancelCause(tctx)
	defer cancelCause(nil)

	if !s.store.claimRunning(j, cancelCause, start) {
		// Canceled while queued: skip without running.
		s.metrics.jobSkipped(j.Kind)
		return
	}
	s.metrics.jobStarted()

	// The execution span joins the job's trace: a child of the submitter's
	// span when the submission carried propagation headers, else the root
	// of the trace minted at submission. Its data is attached to the
	// terminal job document so a remote caller can graft it into its tree.
	ctx = obs.WithRemoteParent(ctx, obs.SpanContext{TraceID: j.TraceID, SpanID: j.live.parentSpan})
	ctx, span := obs.Start(ctx, "job.run")
	span.SetAttr("job_id", j.ID)
	span.SetAttr("kind", string(j.Kind))
	jobLog := s.log.With("job_id", j.ID, "kind", string(j.Kind), "trace_id", j.TraceID)
	ctx = obs.WithLogger(ctx, jobLog)
	// Trace-driven jobs resolve their digest through the local store,
	// falling back to a fetch from the submitter's advertised coordinator.
	ctx = tracestore.WithResolver(ctx, s.resolverFor(j.live.traceSource))
	endSpan := func(err error) []obs.SpanData {
		if span == nil {
			return nil
		}
		span.SetError(err)
		span.End()
		return []obs.SpanData{span.Data()}
	}
	jobLog.Info("job started")

	// Submitted jobs carry their params (restored ones, decoded JSON, never run).
	p := j.Params.(params)
	result, err := p.run(ctx, &j.live.progress)
	finished := time.Now()
	var buf json.RawMessage
	if err == nil {
		buf, err = json.Marshal(result)
	}
	if err != nil {
		if errors.Is(context.Cause(ctx), errJobCanceled) {
			s.store.setCanceled(j, endSpan(context.Cause(ctx)), finished)
			s.metrics.jobFinished(j.Kind, outcomeCanceled, finished.Sub(start), j.TraceID)
			jobLog.Info("job canceled", "elapsed", finished.Sub(start))
			return
		}
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("job exceeded the %s execution deadline", s.cfg.JobTimeout)
		}
		s.store.setFailed(j, err, endSpan(err), finished)
		s.metrics.jobFinished(j.Kind, outcomeFailed, finished.Sub(start), j.TraceID)
		jobLog.Warn("job failed", "err", err, "elapsed", finished.Sub(start))
		return
	}
	s.cache.Put(j.CacheKey, buf)
	s.store.setDone(j, buf, endSpan(nil), finished)
	s.metrics.jobFinished(j.Kind, outcomeDone, finished.Sub(start), j.TraceID)
	s.metrics.jobSchemesDone(j.Kind, schemeLabelsOf(p))
	jobLog.Info("job done", "elapsed", finished.Sub(start))
}

// jobPanicked is the pool's recovery callback: a panic escaped a job's
// exec, the worker survived, and the job must land failed with the panic
// cause. The metrics move matches the job's prior lifecycle state so the
// queued/running gauges stay balanced; a panic after a normal terminal
// transition (already counted) only moves the panic counter.
func (s *Server) jobPanicked(j *Job, cause any) {
	now := time.Now()
	prior, transitioned := s.store.failPanicked(j, cause, now)
	if !transitioned {
		prior = "" // already accounted; only count the panic itself
	}
	var elapsed time.Duration
	if j.Started != nil {
		elapsed = now.Sub(*j.Started)
	}
	s.metrics.jobPanicked(j.Kind, prior, elapsed)
	s.log.Error("panic in job execution; worker recovered",
		"job_id", j.ID, "kind", string(j.Kind), "panic", fmt.Sprint(cause))
}

// handleCancelJob implements DELETE /v1/jobs/{id}. A queued job flips to
// canceled immediately (200); a running job gets its context canceled and
// the response is 202 — the state transition lands when the simulation
// unwinds, within one context-poll interval. Canceling an already-terminal
// job is a 409, except for a sweep shard: its coordinator's DELETE
// releases it (200, the final document), and the job is gone afterwards.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	snap, outcome := s.store.cancel(r.PathValue("id"), time.Now())
	switch outcome {
	case cancelUnknown:
		writeError(w, http.StatusNotFound, "no such job")
	case cancelQueued, cancelReleased:
		// A queued job's accounting happens when the worker dequeues and
		// skips it (metrics.jobSkipped), so the canceled counter moves once.
		writeJSON(w, http.StatusOK, snap)
	case cancelRunning:
		writeJSON(w, http.StatusAccepted, snap)
	default:
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job is already %s", snap.State))
	}
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// jobSummary is the list view of a job (no params or result payload).
type jobSummary struct {
	ID       string     `json:"id"`
	Kind     Kind       `json:"kind"`
	State    State      `json:"state"`
	CacheHit bool       `json:"cache_hit"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	TraceID  string     `json:"trace_id,omitempty"`
	// TraceDigest is the data trace a trace-driven job replays.
	TraceDigest string `json:"trace_digest,omitempty"`
}

// Listing pagination bounds.
const (
	listDefaultLimit = 100
	listMaxLimit     = 1000
)

// handleListJobs implements GET /v1/jobs?state=&limit=&offset=: job
// summaries in creation order (oldest first), optionally filtered to one
// lifecycle state, paginated by limit/offset. The response carries the
// filtered total and, when more pages remain, the next offset — the
// coordinator and operators page through running jobs without pulling
// every result payload.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stateFilter := State(q.Get("state"))
	switch stateFilter {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown state %q (want queued, running, done, failed, or canceled)", stateFilter))
		return
	}
	limit, err := queryInt(q.Get("limit"), listDefaultLimit)
	if err != nil || limit < 1 {
		writeError(w, http.StatusBadRequest, "limit must be a positive integer")
		return
	}
	if limit > listMaxLimit {
		limit = listMaxLimit
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		writeError(w, http.StatusBadRequest, "offset must be a non-negative integer")
		return
	}

	jobs := s.store.list()
	// Creation order: the store map is unordered, but IDs embed the
	// creation sequence; Created-then-ID sorting keeps restored jobs (which
	// kept their original IDs) stable too.
	sort.Slice(jobs, func(i, k int) bool {
		if !jobs[i].Created.Equal(jobs[k].Created) {
			return jobs[i].Created.Before(jobs[k].Created)
		}
		return jobs[i].ID < jobs[k].ID
	})
	filtered := jobs[:0]
	for _, j := range jobs {
		if stateFilter == "" || j.State == stateFilter {
			filtered = append(filtered, j)
		}
	}

	total := len(filtered)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	out := make([]jobSummary, 0, end-offset)
	for _, j := range filtered[offset:end] {
		out = append(out, jobSummary{
			ID: j.ID, Kind: j.Kind, State: j.State, CacheHit: j.CacheHit,
			Created: j.Created, Finished: j.Finished, Error: j.Error,
			TraceID: j.TraceID, TraceDigest: j.TraceDigest,
		})
	}
	resp := map[string]any{"jobs": out, "total": total, "offset": offset}
	if end < total {
		resp["next_offset"] = end
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryInt parses an optional integer query parameter.
func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	type wl struct {
		Name  string  `json:"name"`
		WPKI  float64 `json:"wpki"`
		CR    float64 `json:"cr"`
		Class string  `json:"class"`
	}
	profiles := workload.Profiles()
	out := make([]wl, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, wl{Name: p.Name, WPKI: p.WPKI, CR: p.CR, Class: p.Class.String()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

// legacySchemes are the hard-error scheme names GET /v1/schemes has served
// since before the composition registry, in their request spelling.
var legacySchemes = []string{"ecp", "safer", "aegis", "secded"}

// handleSchemes implements GET /v1/schemes: the legacy hard-error scheme
// list (each built through the registry; monte_carlo marks the Fig 9
// names a failure-probability job accepts), plus the full composition
// registry — codecs, ECCs, write encoders, wear policies, and the four
// paper presets with their canonical specs — so clients can discover what
// a "schemes" spec may compose.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	type mcScheme struct {
		Name        string `json:"name"`
		FullName    string `json:"full_name"`
		Description string `json:"description"`
		MonteCarlo  bool   `json:"monte_carlo"`
	}
	legacy := make([]mcScheme, 0, len(legacySchemes))
	for _, name := range legacySchemes {
		e, sch, err := scheme.ECCByName(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		_, err = experiments.Fig9Scheme(name)
		legacy = append(legacy, mcScheme{name, sch.Name(), e.Description, err == nil})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"schemes":       legacy,
		"codecs":        scheme.Codecs(),
		"eccs":          scheme.ECCs(),
		"encoders":      scheme.Encoders(),
		"wear_policies": scheme.WearPolicies(),
		"presets":       scheme.Presets(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.renderMetrics(w)
}

// renderMetrics writes the full Prometheus exposition. It is the body of
// GET /metrics and also the fleet health plane's self-scrape path (an
// in-process fetch, no HTTP round trip).
func (s *Server) renderMetrics(w io.Writer) {
	now := time.Now()
	depths := s.pool.Depths()
	quotas := make([]tenantQuota, 0, len(depths))
	for _, tn := range s.tenants.Tenants() {
		q := tenantQuota{name: tn.Name, depth: depths[tn.Name]}
		delete(depths, tn.Name)
		q.tokens, q.limited = tn.TokenLevel(now)
		quotas = append(quotas, q)
	}
	// Tenants the queue has seen but the registry does not know (jobs
	// enqueued by embedders/tests) still get a depth gauge.
	leftover := make([]string, 0, len(depths))
	for name := range depths {
		leftover = append(leftover, name)
	}
	sort.Strings(leftover)
	for _, name := range leftover {
		quotas = append(quotas, tenantQuota{name: name, depth: depths[name]})
	}
	s.metrics.WriteTo(w, runtimeStats{
		cacheLen:   s.cache.Len(),
		storeLen:   s.store.size(),
		evicted:    s.store.evictedCount(),
		goroutines: runtime.NumGoroutine(),
		uptime:     time.Since(s.started),
		tenants:    quotas,
		traces:     s.traces.Stats(),
	})
	writeClusterMetrics(w, s.coord.Metrics(), s.coord.Backends())
	if s.fleet != nil {
		writeFleetMetrics(w, s.fleet.Stats())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do but note it on the connection.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
