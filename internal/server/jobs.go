package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/config"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/experiments"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/montecarlo"
	"pcmcomp/internal/obs"
	"pcmcomp/internal/scheme"
	"pcmcomp/internal/tenant"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/tracestore"
	"pcmcomp/internal/workload"
)

// Kind names one of the expensive computations the service exposes.
type Kind string

// The three job kinds, one per POST /v1/jobs/{kind} endpoint.
const (
	KindLifetime           Kind = "lifetime"
	KindFailureProbability Kind = "failure-probability"
	KindCompression        Kind = "compression"
)

// Kinds lists every job kind, in endpoint order.
var Kinds = []Kind{KindLifetime, KindFailureProbability, KindCompression}

// State is a job's lifecycle phase.
type State string

// Jobs move queued -> running -> done|failed|canceled; a cache hit is born
// done, and DELETE /v1/jobs/{id} moves queued jobs straight to canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final (the job will never run
// again); terminal jobs are the ones the store may evict.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// params is the behavior every job-kind parameter struct implements. The
// structs double as the canonical cache-key material: normalize fills in
// defaults so that two requests differing only in omitted-vs-explicit
// defaults hash identically.
type params interface {
	// normalize applies defaults and validates; the returned error text is
	// sent to the client verbatim with a 400 status.
	normalize() error
	// run executes the computation and returns a JSON-serializable result,
	// publishing progress through pr as it goes.
	run(ctx context.Context, pr *jobProgress) (any, error)
}

// paramsFor builds the empty parameter struct for each job kind; it is the
// single registry behind the POST handlers and ExecuteLocal.
var paramsFor = map[Kind]func() params{
	KindLifetime:           func() params { return &LifetimeParams{} },
	KindFailureProbability: func() params { return &FailureProbabilityParams{} },
	KindCompression:        func() params { return &CompressionParams{} },
}

// schemed is the optional params behavior that labels a job with the scheme
// specs it runs (lifetime jobs). The labels feed the scheme-labeled metrics
// and the flight-recorder timeline.
type schemed interface {
	schemeLabels() []string
}

// schemeLabelsOf extracts a job's scheme labels, nil for kinds without them.
func schemeLabelsOf(p params) []string {
	if s, ok := p.(schemed); ok {
		return s.schemeLabels()
	}
	return nil
}

// traced is the optional params behavior of trace-driven kinds: it names
// the data-trace digest the job replays (distinct from the observability
// TraceID). The digest labels the job document and its flight-recorder
// timeline.
type traced interface {
	traceDigest() string
}

// traceDigestOf extracts a job's data-trace digest, "" for synthetic jobs.
func traceDigestOf(p params) string {
	if t, ok := p.(traced); ok {
		return t.traceDigest()
	}
	return ""
}

// jobProgress is a job's live progress meter, written atomically by the
// worker goroutine at the simulation's own check cadence and read by
// GET /v1/jobs/{id} snapshots without locking.
type jobProgress struct {
	done  atomic.Uint64
	total atomic.Uint64
	// quart is the highest progress quartile already recorded to the
	// flight recorder (0..4), so the timeline gets at most four progress
	// ticks per job instead of one per simulation check.
	quart atomic.Uint32
	// tl is the owning job's timeline; nil for meters without a flight
	// recorder (ExecuteLocal).
	tl *obs.Timeline
}

// set publishes the current done/total pair (total 0 = unknown).
func (p *jobProgress) set(done, total uint64) {
	p.total.Store(total)
	p.done.Store(done)
	if p.tl == nil || total == 0 {
		return
	}
	q := uint32(4 * done / total)
	if q > 4 {
		q = 4
	}
	for {
		old := p.quart.Load()
		if q <= old {
			return
		}
		if p.quart.CompareAndSwap(old, q) {
			p.tl.Add("progress", strconv.Itoa(int(q*25))+"%",
				"done", strconv.FormatUint(done, 10),
				"total", strconv.FormatUint(total, 10))
			return
		}
	}
}

// Progress is the client-visible snapshot of a running job's progress. The
// unit depends on the kind: demand writes for lifetime, Monte-Carlo trials
// for failure-probability, trace events for compression. Total is 0 when
// the endpoint is unknown (a lifetime run without a write cap stops at the
// failure criterion, not at a predictable count).
type Progress struct {
	Done  uint64 `json:"done"`
	Total uint64 `json:"total,omitempty"`
}

// snapshot returns the meter's current value, or nil if nothing has been
// reported yet.
func (p *jobProgress) snapshot() *Progress {
	if p == nil {
		return nil
	}
	done, total := p.done.Load(), p.total.Load()
	if done == 0 && total == 0 {
		return nil
	}
	return &Progress{Done: done, Total: total}
}

// ExecuteLocal runs one job synchronously in-process: decode, normalize,
// run, marshal — the same pipeline a POST + worker would apply, minus the
// queue and the store. It is the loopback backend a peerless pcmd hands
// to the cluster coordinator, so a sweep degrades gracefully to local
// execution with bit-identical results.
func ExecuteLocal(ctx context.Context, kind Kind, raw json.RawMessage) (json.RawMessage, error) {
	p, err := decodeParams(kind, raw)
	if err != nil {
		return nil, err
	}
	result, err := p.run(ctx, &jobProgress{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(result)
}

// decodeParams decodes and normalizes one job's raw params, as a backend
// does before it runs them.
func decodeParams(kind Kind, raw json.RawMessage) (params, error) {
	factory, ok := paramsFor[kind]
	if !ok {
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
	p := factory()
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("invalid params: %w", err)
		}
	}
	if err := p.normalize(); err != nil {
		return nil, err
	}
	return p, nil
}

// cacheKey derives the content address of a job: the SHA-256 of the kind
// and the canonical JSON of its normalized parameters. Struct marshaling in
// Go is deterministic (fields in declaration order, no map iteration), so
// identical sweeps collide exactly.
func cacheKey(kind Kind, p params) (string, error) {
	buf, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{'\n'})
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Job is one asynchronous computation tracked by the store. Mutable fields
// are guarded by the owning store's mutex; the run closure is invoked by
// exactly one pool worker.
type Job struct {
	ID       string          `json:"id"`
	Kind     Kind            `json:"kind"`
	State    State           `json:"state"`
	CacheKey string          `json:"cache_key"`
	CacheHit bool            `json:"cache_hit"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Params   any             `json:"params"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	// Progress is filled on snapshots of running jobs from the live meter;
	// it is never persisted (a restored terminal job has its result).
	Progress *Progress `json:"progress,omitempty"`
	// Tenant names the admission principal that submitted the job (empty
	// for jobs created outside the front door, e.g. in tests).
	Tenant string `json:"tenant,omitempty"`
	// TraceID is the trace this job belongs to: adopted from the inbound
	// propagation headers, or minted at submission.
	TraceID string `json:"trace_id,omitempty"`
	// TraceDigest is the data trace the job replays ("sha256:..."), set for
	// trace-driven jobs so pollers and list views can correlate a job with
	// its uploaded workload without re-reading the params.
	TraceDigest string `json:"trace_digest,omitempty"`
	// Spans are the job's execution spans, attached atomically with the
	// terminal state so a remote caller polling the document can graft
	// them into its own trace (cluster.HTTPBackend does).
	Spans []obs.SpanData `json:"spans,omitempty"`

	run params
	// progress is the live meter the worker writes through; shared by
	// every snapshot of this job.
	progress *jobProgress
	// cancel aborts the running job's context with errJobCanceled; set by
	// claimRunning, nil outside the running state.
	cancel context.CancelCauseFunc
	// parent is the submitter's span (zero when the submission carried no
	// propagation headers); the execution span becomes its child.
	parent obs.SpanContext
	// weight is the submitting tenant's fair-queueing share, captured at
	// add so the pool needs no registry lookup.
	weight int
	// events is the job's flight-recorder timeline. The pointer is set at
	// add/restore and never replaced, so reads need no store lock.
	events *obs.Timeline
	// traceSource is the coordinator base URL the submitter advertised
	// (X-Trace-Source): where to fetch the job's data trace when the local
	// store does not hold its digest. Set before the job is submitted to
	// the pool, read by execute.
	traceSource string
}

// errJobCanceled is the cancellation cause a DELETE plants in a running
// job's context, so execute can tell a client cancel from a timeout.
var errJobCanceled = errors.New("canceled by client")

// store is the job registry: a registry of *Job (see registry for the
// eviction and expiry policy) plus the job transitions, each of which
// mutates the job under the registry lock.
type store struct {
	*registry[*Job]
}

func newStore(maxJobs int, ttl time.Duration) *store {
	return &store{newRegistry[*Job](maxJobs, ttl)}
}

func (j *Job) docID() string           { return j.ID }
func (j *Job) docState() State         { return j.State }
func (j *Job) docFinished() *time.Time { return j.Finished }
func (j *Job) timeline() *obs.Timeline { return j.events }

// markTerminal drops a finished job's cancel handle and hands it to the
// registry's terminal order. Callers hold s.mu and have already set the
// terminal state.
func (s *store) markTerminal(j *Job) {
	j.cancel = nil
	s.markTerminalLocked(j)
}

// export returns copies of every terminal job in eviction order (oldest
// finished first), their timelines, and the ID sequence, for snapshotting.
func (s *store) export() ([]Job, map[string][]obs.Event, uint64) {
	var out []Job
	events, seq := s.registry.export(func(j *Job) { out = append(out, *j) })
	return out, events, seq
}

// restore reinstates snapshotted terminal jobs; only their exported fields
// survive, so the run state starts empty.
func (s *store) restore(jobs []Job, events map[string][]obs.Event, seq uint64) {
	docs := make([]*Job, len(jobs))
	for i, j := range jobs {
		j.run, j.cancel, j.progress, j.Progress = nil, nil, nil, nil
		j.parent = obs.SpanContext{}
		j.events = obs.NewTimeline(0)
		docs[i] = &j
	}
	s.registry.restore(docs, events, seq)
}

// add registers a new job and assigns its ID. IDs embed a sequence number
// and the cache-key prefix, so logs correlate job handles with results.
// tn is the submitting tenant (nil for jobs created outside the front
// door: its name labels the job document and its weight rides along for
// the pool's fair queueing).
func (s *store) add(kind Kind, p params, key string, tn *tenant.Tenant, now time.Time) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &Job{
		ID:       fmt.Sprintf("j%06d-%s", s.seq, key[:8]),
		Kind:     kind,
		State:    StateQueued,
		CacheKey: key,
		Created:  now,
		Params:   p,
		TraceID:  obs.NewTraceID(),
		run:      p,
		events:   obs.NewTimeline(0),
		weight:   1,
	}
	if tn != nil {
		j.Tenant = tn.Name
		j.weight = tn.Weight
	}
	j.progress = &jobProgress{tl: j.events}
	fields := []string{"kind", string(kind)}
	if labels := schemeLabelsOf(p); len(labels) > 0 {
		// Specs contain commas, so the timeline field joins on ";".
		fields = append(fields, "schemes", strings.Join(labels, ";"))
	}
	if digest := traceDigestOf(p); digest != "" {
		j.TraceDigest = digest
		fields = append(fields, "trace", digest)
	}
	j.events.AddAt(now, "queued", "", fields...)
	s.docs[j.ID] = j
	return j
}

// setTraceSource records the coordinator URL a trace-driven job may fetch
// its data trace from. Taken under the store lock because concurrent GETs
// may already be copying the job document.
func (s *store) setTraceSource(j *Job, source string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.traceSource = source
}

// adoptTrace joins a just-added job to the submitter's trace (the inbound
// propagation headers): the execution span becomes a child of the caller's
// span instead of rooting a fresh trace. Call before the job is submitted
// to the pool.
func (s *store) adoptTrace(j *Job, sc obs.SpanContext) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.TraceID = sc.TraceID
	j.parent = sc
}

// get returns a snapshot of a job (copy, so callers can marshal it without
// holding the lock).
func (s *store) get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.docs[id]
	if !ok {
		return Job{}, false
	}
	cp := *j
	if cp.State == StateRunning {
		cp.Progress = j.progress.snapshot()
	}
	return cp, true
}

// list returns snapshots of every job, unordered.
func (s *store) list() []Job {
	var out []Job
	s.each(func(j *Job) { out = append(out, *j) })
	return out
}

// claimRunning atomically moves a queued job to running and installs its
// cancel function. It reports false when the job was canceled while
// waiting in the queue — the worker must skip it without running.
func (s *store) claimRunning(j *Job, cancel context.CancelCauseFunc, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.State != StateQueued {
		return false
	}
	j.State = StateRunning
	j.Started = &now
	j.cancel = cancel
	j.events.AddAt(now, "started", "")
	return true
}

// setDone records a successful result plus the execution spans.
func (s *store) setDone(j *Job, result json.RawMessage, spans []obs.SpanData, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.State = StateDone
	j.Result = result
	j.Spans = spans
	j.Finished = &now
	j.events.AddAt(now, "done", "")
	s.markTerminal(j)
}

// finishCached completes a job immediately from a cached result.
func (s *store) finishCached(j *Job, result json.RawMessage, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.State = StateDone
	j.CacheHit = true
	j.Result = result
	j.Started = &now
	j.Finished = &now
	j.events.AddAt(now, "cache_hit", "answered from the result cache")
	j.events.AddAt(now, "done", "")
	s.markTerminal(j)
}

// setFailed records a failure with its cause and any execution spans.
func (s *store) setFailed(j *Job, err error, spans []obs.SpanData, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.State = StateFailed
	j.Error = err.Error()
	j.Spans = spans
	j.Finished = &now
	j.events.AddAt(now, "failed", "", "cause", err.Error())
	s.markTerminal(j)
}

// failPanicked records a job whose execution panicked: the recovering
// worker could not reach a normal terminal transition, so the store
// fails the job with the panic cause. It returns the job's prior state
// and whether the transition happened — false when the job was somehow
// already terminal (a panic after setDone/setFailed landed), in which
// case touching the terminal list again would corrupt it.
func (s *store) failPanicked(j *Job, cause any, now time.Time) (State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prior := j.State
	if prior.Terminal() {
		return prior, false
	}
	j.State = StateFailed
	j.Error = fmt.Sprintf("panic in job execution: %v", cause)
	j.Finished = &now
	j.events.AddAt(now, "failed", "worker recovered a panic", "cause", fmt.Sprint(cause))
	s.markTerminal(j)
	return prior, true
}

// setCanceled records a cancellation observed by the worker (the running
// job's run returned with errJobCanceled as the context cause).
func (s *store) setCanceled(j *Job, spans []obs.SpanData, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.State = StateCanceled
	j.Error = errJobCanceled.Error()
	j.Spans = spans
	j.Finished = &now
	j.events.AddAt(now, "canceled", "")
	s.markTerminal(j)
}

// cancelOutcome classifies what a cancel request found.
type cancelOutcome int

const (
	cancelUnknown  cancelOutcome = iota // no such job
	cancelQueued                        // canceled before running; now terminal
	cancelRunning                       // cancellation signaled; worker will finish it
	cancelTerminal                      // already done/failed/canceled; nothing to do
)

// cancel handles DELETE /v1/jobs/{id}: a queued job flips straight to
// canceled (the worker that later dequeues it skips it), a running job has
// its context canceled with errJobCanceled so the simulation unwinds at
// its next context poll and the worker is freed mid-run.
func (s *store) cancel(id string, now time.Time) (Job, cancelOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.docs[id]
	if !ok {
		return Job{}, cancelUnknown
	}
	switch j.State {
	case StateQueued:
		j.State = StateCanceled
		j.Error = errJobCanceled.Error()
		j.Finished = &now
		j.events.AddAt(now, "canceled", "canceled while queued")
		s.markTerminal(j)
		return *j, cancelQueued
	case StateRunning:
		if j.cancel != nil {
			j.cancel(errJobCanceled)
		}
		j.events.AddAt(now, "cancel_requested", "client cancel; unwinding at the next context poll")
		return *j, cancelRunning
	default:
		return *j, cancelTerminal
	}
}

// --- lifetime jobs ---

// LifetimeParams parameterize POST /v1/jobs/lifetime: the same run
// cmd/lifetime performs, per requested system or scheme spec, on a
// generated trace.
type LifetimeParams struct {
	// App is the workload profile name. Required for synthetic jobs; with
	// Trace set it becomes optional and only calibrates the wall-clock
	// projection (its WPKI feeds the time model).
	App string `json:"app,omitempty"`
	// Trace, when set, is the digest ("sha256:...") of an uploaded trace
	// (POST /v1/traces): the run replays that trace instead of generating a
	// synthetic one. Without App the WPKI falls back to 1.0 — relative
	// lifetimes stay exact, but provide app for a calibrated wall-clock
	// projection.
	Trace string `json:"trace,omitempty"`
	// Scale is the substrate preset name (default "quick").
	Scale string `json:"scale"`
	// Systems lists the paper systems to run (default all four, baseline
	// first). Mutually exclusive with Schemes.
	Systems []string `json:"systems"`
	// Schemes lists scheme specs to run instead of Systems: preset names or
	// key=value compositions like "comp=bdi+fpc,ecc=ecp6,enc=coset4,
	// wl=startgap" (see internal/scheme). Canonicalized on normalize so
	// spelling variants share a cache key.
	Schemes []string `json:"schemes,omitempty"`
	// Seed drives trace generation and endurance sampling (default 1,
	// matching the CLI).
	Seed uint64 `json:"seed"`
	// MaxDemandWrites caps each run (0 = none).
	MaxDemandWrites uint64 `json:"max_demand_writes"`
}

func (p *LifetimeParams) normalize() error {
	if p.Trace != "" {
		digest, err := tracestore.ParseDigest(p.Trace)
		if err != nil {
			return err
		}
		p.Trace = digest
	} else if p.App == "" {
		return fmt.Errorf("app is required (or provide a trace digest)")
	}
	if p.App != "" {
		if _, err := workload.ByName(p.App); err != nil {
			return err
		}
	}
	if p.Scale == "" {
		p.Scale = config.ScaleQuick.Name
	}
	if _, err := config.ByName(p.Scale); err != nil {
		return err
	}
	if len(p.Schemes) > 0 {
		if len(p.Systems) > 0 {
			return fmt.Errorf("systems and schemes are mutually exclusive")
		}
		seen := make(map[string]bool, len(p.Schemes))
		for i, spec := range p.Schemes {
			sp, err := scheme.Parse(spec)
			if err != nil {
				return err
			}
			// Canonical spec string, so spelling variants share a cache key.
			p.Schemes[i] = sp.String()
			if seen[p.Schemes[i]] {
				return fmt.Errorf("duplicate scheme %q", p.Schemes[i])
			}
			seen[p.Schemes[i]] = true
		}
	} else {
		if len(p.Systems) == 0 {
			for _, pr := range scheme.Presets() {
				p.Systems = append(p.Systems, pr.Name)
			}
		}
		for i, name := range p.Systems {
			pr, err := scheme.PresetByName(name)
			if err != nil {
				return err
			}
			// Canonical spelling, so "compwf" and "comp+wf" share a cache key.
			p.Systems[i] = pr.Name
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

// traceDigest implements traced.
func (p *LifetimeParams) traceDigest() string { return p.Trace }

// schemeLabels returns the canonical scheme specs this job runs — the
// explicit Schemes axis, or the requested presets (every preset name is a
// valid spec). Feeds the scheme-labeled metrics and flight-recorder events.
func (p *LifetimeParams) schemeLabels() []string {
	if len(p.Schemes) > 0 {
		return p.Schemes
	}
	return p.Systems
}

// LifetimeSystemResult is one system's (or composed scheme's) row of a
// lifetime job result. System carries the canonical scheme spec, which for
// the paper's four systems collapses to the preset name.
type LifetimeSystemResult struct {
	System            string  `json:"system"`
	DemandWrites      uint64  `json:"demand_writes"`
	Replays           int     `json:"replays"`
	Failed            bool    `json:"failed"`
	ProjectedMonths   float64 `json:"projected_months"`
	Normalized        float64 `json:"normalized"`
	BitFlips          uint64  `json:"bit_flips"`
	SetPulses         uint64  `json:"set_pulses"`
	ResetPulses       uint64  `json:"reset_pulses"`
	WriteEnergyPJ     float64 `json:"write_energy_pj"`
	Uncorrectable     uint64  `json:"uncorrectable_errors"`
	Resurrections     uint64  `json:"resurrections"`
	GapMovements      uint64  `json:"gap_movements"`
	Rotations         uint64  `json:"rotations"`
	FinalDeadFraction float64 `json:"final_dead_fraction"`
	// The write-encoder stage's accounting (enc=coset*/wire specs); zero
	// when no encoder is composed.
	EncodedWrites        uint64  `json:"encoded_writes,omitempty"`
	EncoderFlipsSaved    int64   `json:"encoder_flips_saved,omitempty"`
	EncoderEnergySavedPJ float64 `json:"encoder_energy_saved_pj,omitempty"`
}

// LifetimeResult is the result payload of a lifetime job.
type LifetimeResult struct {
	App     string                 `json:"app,omitempty"`
	Trace   string                 `json:"trace,omitempty"`
	Scale   string                 `json:"scale"`
	Seed    uint64                 `json:"seed"`
	Systems []LifetimeSystemResult `json:"systems"`
}

func (p *LifetimeParams) run(ctx context.Context, pr *jobProgress) (any, error) {
	scale, err := config.ByName(p.Scale)
	if err != nil {
		return nil, err
	}
	// The time model's WPKI comes from the app profile; a trace-driven run
	// without one projects at WPKI 1.0, which keeps relative lifetimes
	// exact and leaves the wall-clock column uncalibrated.
	wpki := 1.0
	if p.App != "" {
		prof, err := workload.ByName(p.App)
		if err != nil {
			return nil, err
		}
		wpki = prof.WPKI
	}
	var events []trace.Event
	if p.Trace != "" {
		raw, err := tracestore.ResolveFrom(ctx, p.Trace)
		if err != nil {
			return nil, err
		}
		rep, err := workload.NewReplay(raw)
		if err != nil {
			return nil, err
		}
		events = rep.Events()
	} else {
		prof, err := workload.ByName(p.App)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(prof, scale.TraceLines, p.Seed)
		if err != nil {
			return nil, err
		}
		events = gen.GenerateTrace(scale.TraceEvents)
	}
	tm := lifetime.DefaultTimeModel(wpki, scale.EnduranceScale(), scale.CapacityScale())

	// Progress unit: demand writes across all requested systems. The total
	// is only knowable when a write cap bounds each run.
	specs := p.schemeLabels()
	var progressTotal uint64
	if p.MaxDemandWrites > 0 {
		progressTotal = p.MaxDemandWrites * uint64(len(specs))
	}

	out := LifetimeResult{App: p.App, Trace: p.Trace, Scale: p.Scale, Seed: p.Seed}
	var reference uint64
	var writesDone uint64
	for i, spec := range specs {
		sp, err := scheme.Parse(spec)
		if err != nil {
			return nil, err
		}
		ctrl, err := sp.ControllerConfig(scale.Substrate(p.Seed))
		if err != nil {
			return nil, err
		}
		cfg := lifetime.DefaultConfig(ctrl)
		cfg.MaxDemandWrites = p.MaxDemandWrites
		base := writesDone
		cfg.OnProgress = func(dw uint64) { pr.set(base+dw, progressTotal) }
		res, err := lifetime.RunContext(ctx, cfg, events)
		if err != nil {
			return nil, err
		}
		writesDone += res.DemandWrites
		if i == 0 {
			reference = res.DemandWrites
		}
		norm := 0.0
		if reference > 0 {
			norm = float64(res.DemandWrites) / float64(reference)
		}
		s := res.Stats
		out.Systems = append(out.Systems, LifetimeSystemResult{
			System:               spec,
			DemandWrites:         res.DemandWrites,
			Replays:              res.Replays,
			Failed:               res.Failed,
			ProjectedMonths:      tm.Months(res.DemandWrites),
			Normalized:           norm,
			BitFlips:             s.BitFlips,
			SetPulses:            s.SetPulses,
			ResetPulses:          s.ResetPulses,
			WriteEnergyPJ:        s.WriteEnergyPJ(),
			Uncorrectable:        s.UncorrectableErrors,
			Resurrections:        s.Resurrections,
			GapMovements:         s.GapMovements,
			Rotations:            s.Rotations,
			FinalDeadFraction:    res.FinalDeadFraction,
			EncodedWrites:        s.EncodedWrites,
			EncoderFlipsSaved:    s.EncoderFlipsSaved,
			EncoderEnergySavedPJ: s.EncoderEnergySavedPJ,
		})
	}
	return out, nil
}

// --- failure-probability jobs ---

// maxTrials bounds a single request's Monte-Carlo cost (the paper's own
// setting is 100,000 trials per point).
const maxTrials = 1_000_000

// FailureProbabilityParams parameterize POST /v1/jobs/failure-probability:
// one Fig 9 curve (failure probability vs injected error count).
type FailureProbabilityParams struct {
	// Scheme is ecp, safer, or aegis (default "ecp").
	Scheme string `json:"scheme"`
	// Window is the compressed-data window size in bytes (default 32).
	// Mutually exclusive with Trace, which derives the window distribution
	// from real data instead of a single fixed size.
	Window int `json:"window,omitempty"`
	// Trace, when set, is the digest ("sha256:...") of an uploaded trace:
	// instead of one fixed window, the curve is the mixture of per-window
	// curves weighted by how often each compressed size occurs in the
	// trace — the paper's Fig 9 evaluated against a real footprint.
	Trace string `json:"trace,omitempty"`
	// MaxErrors is the largest injected fault count (default 64).
	MaxErrors int `json:"max_errors"`
	// Trials is the number of injections per point (default 10000; the
	// paper uses 100000).
	Trials int `json:"trials"`
	// Seed drives the injections (default 1).
	Seed uint64 `json:"seed"`
}

func (p *FailureProbabilityParams) normalize() error {
	if p.Scheme == "" {
		p.Scheme = "ecp"
	}
	if _, err := experiments.Fig9Scheme(p.Scheme); err != nil {
		return err
	}
	if p.Trace != "" {
		if p.Window != 0 {
			return fmt.Errorf("window and trace are mutually exclusive (the trace supplies the window distribution)")
		}
		digest, err := tracestore.ParseDigest(p.Trace)
		if err != nil {
			return err
		}
		p.Trace = digest
	} else {
		if p.Window == 0 {
			p.Window = 32
		}
		if p.Window < 1 || p.Window > block.Size {
			return fmt.Errorf("window %dB out of [1,%d]", p.Window, block.Size)
		}
	}
	if p.MaxErrors == 0 {
		p.MaxErrors = 64
	}
	if p.MaxErrors < 1 || p.MaxErrors > block.Bits {
		return fmt.Errorf("max_errors %d out of [1,%d]", p.MaxErrors, block.Bits)
	}
	if p.Trials == 0 {
		p.Trials = 10_000
	}
	if p.Trials < 1 || p.Trials > maxTrials {
		return fmt.Errorf("trials %d out of [1,%d]", p.Trials, maxTrials)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

// traceDigest implements traced.
func (p *FailureProbabilityParams) traceDigest() string { return p.Trace }

// FailureProbabilityResult is the result payload of a failure-probability
// job: Curve[i] is P(line unusable) at i+1 injected errors. For a
// trace-driven job, Window is 0 and the curve is the size-frequency-
// weighted mixture over the trace's compressed-size histogram; WindowMean
// reports the mixture's mean window.
type FailureProbabilityResult struct {
	Scheme          string    `json:"scheme"`
	Window          int       `json:"window"`
	Trace           string    `json:"trace,omitempty"`
	WindowMean      float64   `json:"window_mean,omitempty"`
	Trials          int       `json:"trials"`
	Curve           []float64 `json:"curve"`
	TolerableAtHalf int       `json:"tolerable_at_half"`
}

func (p *FailureProbabilityParams) run(ctx context.Context, pr *jobProgress) (any, error) {
	scheme, err := experiments.Fig9Scheme(p.Scheme)
	if err != nil {
		return nil, err
	}
	if p.Trace != "" {
		return p.runTraced(ctx, scheme, pr)
	}
	// Progress unit: Monte-Carlo trials (curve points x trials per point).
	// One Runner per job: the whole curve shares one heap-resident scratch
	// block instead of re-escaping the RNG and fault set on every point.
	curve, err := montecarlo.NewRunner().AppendCurve(ctx,
		make([]float64, 0, p.MaxErrors), scheme, p.Window, p.MaxErrors, p.Trials, p.Seed,
		func(done, total int) {
			pr.set(uint64(done)*uint64(p.Trials), uint64(total)*uint64(p.Trials))
		})
	if err != nil {
		return nil, err
	}
	return FailureProbabilityResult{
		Scheme: scheme.Name(), Window: p.Window, Trials: p.Trials,
		Curve: curve, TolerableAtHalf: montecarlo.TolerableAt(curve, 0.5),
	}, nil
}

// runTraced computes the trace-weighted Fig 9 curve: histogram the BEST
// compressed size of every event in the trace, run one Monte-Carlo curve
// per occupied size, and mix the curves by occurrence frequency. Window
// sizes ascend, so the work order — and with one fresh seed per window,
// the result — is deterministic for a given (trace, seed).
func (p *FailureProbabilityParams) runTraced(ctx context.Context, scheme ecc.Scheme, pr *jobProgress) (any, error) {
	events, err := tracestore.ResolveFrom(ctx, p.Trace)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, trace.ErrEmptyTrace
	}
	var comp compress.Compressor
	var counts [block.Size + 1]int
	for i := range events {
		counts[comp.Compress(&events[i].Data).Size()]++
	}
	windows := 0
	var sizeSum float64
	for w := 1; w <= block.Size; w++ {
		if counts[w] > 0 {
			windows++
			sizeSum += float64(w) * float64(counts[w])
		}
	}

	// Progress unit: Monte-Carlo trials across every occupied window size.
	progressTotal := uint64(windows) * uint64(p.MaxErrors) * uint64(p.Trials)
	var trialsDone uint64
	runner := montecarlo.NewRunner()
	curve := make([]float64, p.MaxErrors)
	for w := 1; w <= block.Size; w++ {
		if counts[w] == 0 {
			continue
		}
		base := trialsDone
		wc, err := runner.AppendCurve(ctx,
			make([]float64, 0, p.MaxErrors), scheme, w, p.MaxErrors, p.Trials, p.Seed,
			func(done, total int) {
				pr.set(base+uint64(done)*uint64(p.Trials), progressTotal)
			})
		if err != nil {
			return nil, err
		}
		trialsDone += uint64(p.MaxErrors) * uint64(p.Trials)
		frac := float64(counts[w]) / float64(len(events))
		for k := range wc {
			curve[k] += frac * wc[k]
		}
	}
	return FailureProbabilityResult{
		Scheme: scheme.Name(), Trace: p.Trace,
		WindowMean: sizeSum / float64(len(events)), Trials: p.Trials,
		Curve: curve, TolerableAtHalf: montecarlo.TolerableAt(curve, 0.5),
	}, nil
}

// --- compression jobs ---

// CompressionParams parameterize POST /v1/jobs/compression: the Fig 3
// compressed-size sweep (BDI vs FPC vs BEST) over a set of applications.
type CompressionParams struct {
	// Apps lists workloads to sweep (default: the paper's figure order).
	Apps []string `json:"apps"`
	// Scale picks trace dimensions (lines and events per app; default
	// "quick").
	Scale string `json:"scale"`
	// Seed drives trace generation (default 1).
	Seed uint64 `json:"seed"`
}

func (p *CompressionParams) normalize() error {
	if len(p.Apps) == 0 {
		p.Apps = append([]string(nil), experiments.FigureOrder...)
	}
	for _, app := range p.Apps {
		if _, err := workload.ByName(app); err != nil {
			return err
		}
	}
	if p.Scale == "" {
		p.Scale = config.ScaleQuick.Name
	}
	if _, err := config.ByName(p.Scale); err != nil {
		return err
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

// CompressionAppResult is one application's row of a compression job.
type CompressionAppResult struct {
	App       string  `json:"app"`
	BDIBytes  float64 `json:"bdi_bytes"`
	FPCBytes  float64 `json:"fpc_bytes"`
	BestBytes float64 `json:"best_bytes"`
	BestRatio float64 `json:"best_ratio"`
}

// CompressionResult is the result payload of a compression job.
type CompressionResult struct {
	Scale   string                 `json:"scale"`
	Seed    uint64                 `json:"seed"`
	Apps    []CompressionAppResult `json:"apps"`
	Average CompressionAppResult   `json:"average"`
}

// run computes each app's row with the function behind cmd/figures fig3,
// so a job's rows equal that figure's rows for the same scale and seed.
func (p *CompressionParams) run(ctx context.Context, pr *jobProgress) (any, error) {
	scale, err := config.ByName(p.Scale)
	if err != nil {
		return nil, err
	}
	// Progress unit: trace events across all requested apps.
	progressTotal := uint64(len(p.Apps)) * uint64(scale.TraceEvents)
	out := CompressionResult{Scale: p.Scale, Seed: p.Seed}
	for appIdx, app := range p.Apps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eventsBase := uint64(appIdx) * uint64(scale.TraceEvents)
		s, err := experiments.AppCompressedSizes(app, scale.TraceLines, scale.TraceEvents, p.Seed,
			func(done int) { pr.set(eventsBase+uint64(done), progressTotal) })
		if err != nil {
			return nil, err
		}
		out.Apps = append(out.Apps, CompressionAppResult{
			App: app, BDIBytes: s.BDI, FPCBytes: s.FPC,
			BestBytes: s.Best, BestRatio: s.Best / block.Size,
		})
	}
	n := float64(len(out.Apps))
	for _, r := range out.Apps {
		out.Average.BDIBytes += r.BDIBytes / n
		out.Average.FPCBytes += r.FPCBytes / n
		out.Average.BestBytes += r.BestBytes / n
		out.Average.BestRatio += r.BestRatio / n
	}
	out.Average.App = "average"
	return out, nil
}
