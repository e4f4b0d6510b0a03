package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pcmcomp/internal/obs"
	"pcmcomp/internal/pcmclient"
)

// Options tune the coordinator's robustness machinery. The zero value gets
// sensible defaults from New.
type Options struct {
	// MaxRetries is how many times a failed shard is re-dispatched (to a
	// different backend when one is available) before the sweep fails
	// (default 2).
	MaxRetries int
	// ShardTimeout bounds one dispatch attempt; an expired attempt counts
	// as a failure and is retried (default 15 minutes).
	ShardTimeout time.Duration
	// HedgeAfter launches a duplicate of a still-running shard on a second
	// backend once this much time has passed — the first result wins and
	// the loser is canceled. Zero disables hedging.
	HedgeAfter time.Duration
	// Concurrency bounds shards in flight across the fleet (default
	// 2 x backend count).
	Concurrency int
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects the backend
	// before a half-open trial dispatch is allowed (default 15s).
	BreakerCooldown time.Duration
}

func (o Options) withDefaults(backends int) Options {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 2
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 15 * time.Minute
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 2 * backends
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 15 * time.Second
	}
	return o
}

// backendState pairs a Backend with its load counter and circuit breaker.
type backendState struct {
	b        Backend
	inflight int64 // guarded by the owning coordinator's mu

	mu          sync.Mutex
	consecFails int
	openUntil   time.Time // zero = circuit closed
}

// available reports whether the picker may use this backend: the circuit is
// closed, or open but past its cooldown (half-open trial).
func (bs *backendState) available(now time.Time) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.openUntil.IsZero() || now.After(bs.openUntil)
}

// onSuccess closes the circuit.
func (bs *backendState) onSuccess() {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.consecFails = 0
	bs.openUntil = time.Time{}
}

// onFailure counts a failure and opens the circuit at the threshold,
// reporting whether this call opened it.
func (bs *backendState) onFailure(threshold int, cooldown time.Duration, now time.Time) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.consecFails++
	if bs.consecFails < threshold {
		return false
	}
	opened := bs.openUntil.IsZero()
	bs.openUntil = now.Add(cooldown)
	return opened
}

// forceOpen opens the circuit immediately (failed health probe), reporting
// whether it was a transition.
func (bs *backendState) forceOpen(cooldown time.Duration, now time.Time) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	opened := bs.openUntil.IsZero()
	bs.openUntil = now.Add(cooldown)
	return opened
}

// Coordinator dispatches sweep shards across a fleet of backends with
// weighted least-loaded selection, per-shard retry, hedged duplicates for
// stragglers, and per-backend circuit breaking. It is safe for concurrent
// SweepWithHooks calls; the backends' load and health are shared across
// sweeps.
type Coordinator struct {
	opts     Options
	mu       sync.Mutex // guards inflight counters during selection
	backends []*backendState
	metrics  Metrics
}

// New builds a coordinator over the given fleet.
func New(backends []Backend, opts Options) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	c := &Coordinator{opts: opts.withDefaults(len(backends))}
	for _, b := range backends {
		c.backends = append(c.backends, &backendState{b: b})
	}
	return c, nil
}

// Metrics returns a snapshot of the dispatch counters.
func (c *Coordinator) Metrics() MetricsSnapshot { return c.metrics.Snapshot() }

// Backends reports each backend's current health and load, in registration
// order.
func (c *Coordinator) Backends() []BackendStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]BackendStatus, len(c.backends))
	for i, bs := range c.backends {
		bs.mu.Lock()
		out[i] = BackendStatus{
			Name:             bs.b.Name(),
			Weight:           bs.b.Weight(),
			Inflight:         bs.inflight,
			Healthy:          bs.openUntil.IsZero(),
			ConsecutiveFails: bs.consecFails,
		}
		bs.mu.Unlock()
	}
	return out
}

// pick acquires the least-loaded available backend (load = (inflight+1) /
// weight), skipping exclude. When every circuit is open it falls back to
// the least-loaded backend anyway — a degraded fleet should limp, not
// deadlock. Returns nil only when exclusion leaves no candidate. The
// returned backend's inflight count is already incremented; release it
// with c.release.
func (c *Coordinator) pick(exclude *backendState) *backendState {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	best := c.pickLocked(exclude, true, now)
	if best == nil {
		best = c.pickLocked(exclude, false, now)
	}
	if best != nil {
		best.inflight++
	}
	return best
}

func (c *Coordinator) pickLocked(exclude *backendState, needAvailable bool, now time.Time) *backendState {
	var best *backendState
	var bestLoad float64
	for _, bs := range c.backends {
		if bs == exclude {
			continue
		}
		if needAvailable && !bs.available(now) {
			continue
		}
		load := float64(bs.inflight+1) / bs.b.Weight()
		if best == nil || load < bestLoad {
			best, bestLoad = bs, load
		}
	}
	return best
}

// release undoes a pick's inflight increment.
func (c *Coordinator) release(bs *backendState) {
	c.mu.Lock()
	bs.inflight--
	c.mu.Unlock()
}

// CheckAll probes every backend once and updates the breakers: a healthy
// probe closes a backend's circuit, a failed one opens it.
func (c *Coordinator) CheckAll(ctx context.Context) {
	now := time.Now()
	for _, bs := range c.backends {
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := bs.b.Check(pctx)
		cancel()
		if err != nil {
			c.metrics.probeFail.Add(1)
			if bs.forceOpen(c.opts.BreakerCooldown, now) {
				c.metrics.breakerOpens.Add(1)
			}
			continue
		}
		c.metrics.probeOK.Add(1)
		bs.onSuccess()
	}
}

// HealthLoop probes the fleet every interval until the context is
// canceled. Run it as a goroutine alongside long-lived coordinators so a
// crashed backend is sidelined between sweeps and a recovered one is
// readmitted without waiting for a half-open trial to fail over to it.
func (c *Coordinator) HealthLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.CheckAll(ctx)
		}
	}
}

// Shard event types, as emitted through SweepHooks.OnEvent and recorded
// on a sweep's flight-recorder timeline.
const (
	EventDispatch    = "shard_dispatch"     // an attempt launched on a backend
	EventRetry       = "shard_retry"        // a failed shard is being re-dispatched
	EventHedge       = "shard_hedge"        // a straggler got a duplicate dispatch
	EventHedgeCancel = "shard_hedge_cancel" // a losing duplicate was reclaimed
	EventShardDone   = "shard_done"         // a shard's result is in
	EventShardFailed = "shard_failed"       // a shard exhausted its retries
)

// ShardEvent is one scheduling decision, reported as it happens so the
// caller can attribute a sweep's behaviour per shard: which backend ran
// it, why it was retried or hedged, and what failed.
type ShardEvent struct {
	Time    time.Time `json:"time"`
	Type    string    `json:"type"`
	Shard   int       `json:"shard"`
	Seed    uint64    `json:"seed"`
	Scheme  string    `json:"scheme,omitempty"`
	Backend string    `json:"backend,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Err     string    `json:"error,omitempty"`
}

// SweepHooks are the optional per-sweep observers. OnEvent must be safe
// for concurrent invocation — shards complete in parallel. OnProgress
// calls are serialized by the coordinator, so the hook may write to a
// shared sink without its own locking.
type SweepHooks struct {
	// OnProgress is invoked after every shard completion with the done and
	// total shard counts; calls are serialized and done is strictly
	// increasing.
	OnProgress func(done, total int)
	// OnEvent observes every scheduling decision (dispatch, retry, hedge,
	// hedge cancel, completion) as it happens.
	OnEvent func(ev ShardEvent)
}

// emit reports one event through the hook, stamping the time.
func (h *SweepHooks) emit(typ string, sh shard, backend string, attempt int, err error) {
	if h == nil || h.OnEvent == nil {
		return
	}
	ev := ShardEvent{
		Time: time.Now(), Type: typ, Shard: sh.index, Seed: sh.seed,
		Scheme: sh.scheme, Backend: backend, Attempt: attempt,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	h.OnEvent(ev)
}

// SweepWithHooks shards the request across the fleet and returns the
// merged result. It fails only when a shard has exhausted its retries; the
// error then carries the first such shard's cause. hooks observe progress
// and every scheduling decision. When the context carries an obs ring and
// span, each shard contributes a "shard" span (child of the caller's span)
// with one "dispatch" span per attempt, so a traced sweep shows exactly
// where every shard ran and how long each attempt took. Tracing and hooks
// only observe scheduling — the merged result is byte-identical with or
// without them.
func (c *Coordinator) SweepWithHooks(ctx context.Context, req SweepRequest, hooks SweepHooks) (*SweepResult, error) {
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	shards, err := req.shards()
	if err != nil {
		return nil, err
	}

	raw := make([]json.RawMessage, len(shards))
	errs := make([]error, len(shards))
	// Progress calls are serialized under a mutex: hooks may write to
	// shared sinks, and serializing also keeps the reported done counts
	// strictly monotonic.
	var progressMu sync.Mutex
	done := 0
	sem := make(chan struct{}, c.opts.Concurrency)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			raw[i], errs[i] = c.runShard(ctx, shards[i], &hooks)
			if hooks.OnProgress != nil {
				progressMu.Lock()
				done++
				hooks.OnProgress(done, len(shards))
				progressMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d (seed %d): %w", i, shards[i].seed, err)
		}
	}
	return merge(&req, raw)
}

// permanent reports whether an attempt error would recur on any backend, so
// re-dispatching is pointless: the request itself is bad (4xx) or the
// computation deterministically failed on a healthy backend.
func permanent(err error) bool {
	var apiErr *pcmclient.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 400 && apiErr.StatusCode < 500
	}
	var jobErr *pcmclient.JobFailed
	return errors.As(err, &jobErr)
}

// runShard drives one shard to completion: dispatch, hedge stragglers, and
// re-dispatch on failure up to MaxRetries times.
func (c *Coordinator) runShard(ctx context.Context, sh shard, hooks *SweepHooks) (res json.RawMessage, err error) {
	ctx, span := obs.Start(ctx, "shard")
	span.SetAttr("seed", strconv.FormatUint(sh.seed, 10))
	span.SetAttr("kind", sh.kind)
	if sh.scheme != "" {
		span.SetAttr("scheme", sh.scheme)
	}
	defer func() {
		span.SetError(err)
		span.End()
		if err != nil {
			hooks.emit(EventShardFailed, sh, "", 0, err)
		} else {
			hooks.emit(EventShardDone, sh, "", 0, nil)
		}
	}()

	var lastErr error
	var lastBackend *backendState
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.metrics.retries.Add(1)
			hooks.emit(EventRetry, sh, backendName(lastBackend), attempt, lastErr)
			obs.Logger(ctx).Warn("cluster: retrying shard",
				"seed", sh.seed, "attempt", attempt,
				"failed_backend", backendName(lastBackend), "err", lastErr.Error())
		}
		res, err := c.attemptShard(ctx, sh, lastBackend, attempt, hooks)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil || permanent(err) {
			break
		}
		// Prefer a different backend next time; attemptShard's exclusion
		// handles the single-backend fleet (falls back to the same one).
		if bs, ok := err.(*attemptError); ok {
			lastBackend = bs.backend
		}
	}
	return nil, lastErr
}

// backendName is nil-safe (the first attempt has no prior backend).
func backendName(bs *backendState) string {
	if bs == nil {
		return ""
	}
	return bs.b.Name()
}

// attemptError carries which backend an attempt failed on, so the retry
// loop can steer the re-dispatch elsewhere.
type attemptError struct {
	backend *backendState
	err     error
}

func (e *attemptError) Error() string { return e.err.Error() }
func (e *attemptError) Unwrap() error { return e.err }

// attemptShard runs one dispatch of a shard: a primary on the least-loaded
// backend (avoiding the backend the previous attempt failed on), plus — if
// the primary stalls past HedgeAfter and another backend exists — one
// hedged duplicate. The first success wins; the loser's context is
// canceled, which an HTTPBackend turns into DELETE /v1/jobs/{id}.
func (c *Coordinator) attemptShard(ctx context.Context, sh shard, avoid *backendState, attempt int, hooks *SweepHooks) (json.RawMessage, error) {
	primary := c.pick(avoid)
	if primary == nil {
		primary = c.pick(nil)
	}
	if primary == nil {
		return nil, errors.New("no backend available")
	}

	actx, cancel := context.WithTimeout(ctx, c.opts.ShardTimeout)
	defer cancel()

	type outcome struct {
		res json.RawMessage
		err error
		bs  *backendState
	}
	results := make(chan outcome, 2) // buffered: a late loser must not block
	launch := func(bs *backendState, hedged bool) {
		c.metrics.dispatched.Add(1)
		if hedged {
			hooks.emit(EventHedge, sh, bs.b.Name(), attempt, nil)
		} else {
			hooks.emit(EventDispatch, sh, bs.b.Name(), attempt, nil)
		}
		obs.Logger(ctx).Debug("cluster: dispatching shard",
			"seed", sh.seed, "backend", bs.b.Name(), "attempt", attempt, "hedged", hedged)
		go func() {
			// One span per dispatch: the remote job's execution span (reported
			// back in its job document) becomes this span's child via the
			// propagation headers pcmclient stamps from this context.
			dctx, dspan := obs.Start(actx, "dispatch")
			dspan.SetAttr("backend", bs.b.Name())
			dspan.SetAttr("attempt", strconv.Itoa(attempt))
			if hedged {
				dspan.SetAttr("hedged", "true")
			}
			res, err := bs.b.RunJob(dctx, sh.kind, sh.params)
			dspan.SetError(err)
			dspan.End()
			c.release(bs)
			results <- outcome{res: res, err: err, bs: bs}
		}()
	}
	launch(primary, false)

	var hedgeCh <-chan time.Time
	if c.opts.HedgeAfter > 0 && len(c.backends) > 1 {
		hedgeTimer := time.NewTimer(c.opts.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeCh = hedgeTimer.C
	}

	inflight := 1
	var firstErr error
	for inflight > 0 {
		select {
		case <-hedgeCh:
			hedgeCh = nil
			if second := c.pick(primary); second != nil {
				c.metrics.hedges.Add(1)
				launch(second, true)
				inflight++
			}
		case o := <-results:
			inflight--
			if o.err == nil {
				o.bs.onSuccess()
				if inflight > 0 {
					// The duplicate lost; reclaim it.
					c.metrics.hedgeCancels.Add(1)
					hooks.emit(EventHedgeCancel, sh, o.bs.b.Name(), attempt, nil)
					obs.Logger(ctx).Debug("cluster: hedge won, canceling loser",
						"seed", sh.seed, "winner", o.bs.b.Name())
					cancel()
				}
				return o.res, nil
			}
			c.metrics.shardFailures.Add(1)
			// Don't punish a backend for a cancellation we caused.
			if actx.Err() == nil || !errors.Is(o.err, context.Canceled) {
				if o.bs.onFailure(c.opts.BreakerThreshold, c.opts.BreakerCooldown, time.Now()) {
					c.metrics.breakerOpens.Add(1)
					obs.Logger(ctx).Warn("cluster: circuit opened",
						"backend", o.bs.b.Name(), "err", o.err.Error())
				}
			}
			if firstErr == nil {
				firstErr = &attemptError{backend: o.bs, err: o.err}
			}
		}
	}
	return nil, firstErr
}
