package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/tracestore"
	"pcmcomp/internal/version"
)

// latencyBuckets are the per-job-kind histogram upper bounds in seconds.
// Quick-scale jobs land in the sub-second buckets; default- and
// large-scale sweeps span the minute range.
var latencyBuckets = []float64{0.01, 0.1, 0.5, 1, 5, 30, 120, 600}

// httpBuckets are the per-route request-latency upper bounds in seconds:
// handlers are either instant (polls, listings) or as long as a cached
// lookup plus marshaling, so the range is tighter than the job buckets.
var httpBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// exemplarTTL is how long a histogram's exemplar stays sticky: within it
// only a slower observation replaces the exemplar, past it any traced
// observation does, so the exemplar always points at a *recent* worst
// case rather than a spike from hours ago.
const exemplarTTL = 5 * time.Minute

// histogram is a fixed-bucket latency histogram (cumulative on render,
// per-bucket in memory; counts[len(buckets)] is +Inf). Guarded by the
// owning metrics mutex. A nil buckets slice selects latencyBuckets.
type histogram struct {
	buckets []float64
	counts  []uint64
	sum     float64
	n       uint64

	// The exemplar: the trace ID of the slowest recent observation,
	// rendered in OpenMetrics exemplar syntax on the +Inf bucket so a
	// scraped latency spike links to the trace that caused it.
	exTrace string
	exVal   float64
	exAt    time.Time
}

func (h *histogram) observe(seconds float64) {
	h.observeTrace(seconds, "", time.Time{})
}

// observeTrace records one observation and, when it carries a trace ID,
// offers it as the family's exemplar.
func (h *histogram) observeTrace(seconds float64, traceID string, now time.Time) {
	if h.buckets == nil {
		h.buckets = latencyBuckets
	}
	if h.counts == nil {
		h.counts = make([]uint64, len(h.buckets)+1)
	}
	i := sort.SearchFloat64s(h.buckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.n++
	if traceID != "" && (h.exTrace == "" || seconds >= h.exVal || now.Sub(h.exAt) > exemplarTTL) {
		h.exTrace, h.exVal, h.exAt = traceID, seconds, now
	}
}

// writeHistogram renders one labeled histogram series set (cumulative
// buckets, +Inf, sum, count). labels is the rendered label list without
// the le pair, e.g. `kind="lifetime"`. A histogram with an exemplar
// renders it on the +Inf bucket line in OpenMetrics syntax.
func writeHistogram(w io.Writer, family, labels string, h *histogram) {
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", family, labels, fmt.Sprintf("%g", ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d", family, labels, h.n)
	if h.exTrace != "" {
		fmt.Fprintf(w, " # {trace_id=%q} %g", h.exTrace, h.exVal)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", family, labels, h.sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", family, labels, h.n)
}

// metrics aggregates the service's observability counters, rendered in
// Prometheus text exposition format by WriteTo.
type metrics struct {
	mu       sync.Mutex
	queued   int64 // gauge: accepted, not yet started
	running  int64 // gauge: currently executing
	done     map[Kind]uint64
	failed   map[Kind]uint64
	canceled map[Kind]uint64
	// schemeDone counts completed per-scheme runs inside done jobs, keyed
	// kind then canonical scheme spec (a job running four presets moves
	// four counters once).
	schemeDone    map[Kind]map[string]uint64
	cacheHits     uint64
	cacheMisses   uint64
	rejectedFull  uint64 // submissions refused: queue full (transient)
	rejectedDrain uint64 // submissions refused: pool draining (terminal)
	snapshots     uint64 // successful snapshot writes
	latency       map[Kind]*histogram

	sweepsRunning  int64  // gauge: sweeps being coordinated now
	sweepsDone     uint64 // sweeps merged successfully
	sweepsFailed   uint64 // sweeps that exhausted shard retries
	sweepsCanceled uint64 // sweeps canceled by DELETE or shutdown
	// sweepSchemes counts merged sweeps per scheme-matrix row, keyed by
	// canonical scheme spec.
	sweepSchemes map[string]uint64

	httpPanics     uint64                // handler panics recovered to 500s
	jobPanics      uint64                // job-exec panics recovered by workers
	logsSuppressed uint64                // access-log lines dropped by the sampler
	http           map[string]*routeStat // per-route request accounting

	// Front-door accounting, keyed by tenant name.
	tenantSubmits   map[string]uint64 // submissions admitted past the quota
	tenantThrottles map[string]uint64 // submissions refused with 429

	sseActive  int64  // gauge: streaming /events connections open now
	sseStreams uint64 // streaming /events connections ever opened
}

// routeStat is one route's HTTP accounting: requests by status code, the
// in-flight gauge, and the latency histogram. Guarded by the metrics mutex.
type routeStat struct {
	inflight int64
	byCode   map[int]uint64
	seconds  histogram
}

func newMetrics() *metrics {
	return &metrics{
		done:         make(map[Kind]uint64),
		failed:       make(map[Kind]uint64),
		canceled:     make(map[Kind]uint64),
		schemeDone:   make(map[Kind]map[string]uint64),
		sweepSchemes: make(map[string]uint64),
		latency:      make(map[Kind]*histogram),
		http:         make(map[string]*routeStat),

		tenantSubmits:   make(map[string]uint64),
		tenantThrottles: make(map[string]uint64),
	}
}

// tenantSubmitted counts n submissions admitted past a tenant's quota.
func (m *metrics) tenantSubmitted(name string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantSubmits[name] += uint64(n)
}

// tenantThrottled counts one submission refused with 429 for a tenant.
func (m *metrics) tenantThrottled(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantThrottles[name]++
}

// jobPanicked accounts a job-exec panic a worker recovered. prior is the
// job's lifecycle state before the panic transition ("" when the job was
// already terminal and only the panic itself needs counting); the
// matching gauge is unwound so queued/running stay balanced.
func (m *metrics) jobPanicked(kind Kind, prior State, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobPanics++
	switch prior {
	case StateRunning:
		m.running--
		m.failed[kind]++
		h := m.latency[kind]
		if h == nil {
			h = &histogram{}
			m.latency[kind] = h
		}
		h.observe(elapsed.Seconds())
	case StateQueued:
		m.queued--
		m.failed[kind]++
	}
}

// logSuppressed counts an access-log line the sampler dropped.
func (m *metrics) logSuppressed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logsSuppressed++
}

// sseStarted registers one open streaming /events connection.
func (m *metrics) sseStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sseActive++
	m.sseStreams++
}

// sseEnded releases one streaming /events connection.
func (m *metrics) sseEnded() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sseActive--
}

// jobSchemesDone counts one completed run per scheme spec of a done job.
func (m *metrics) jobSchemesDone(kind Kind, schemes []string) {
	if len(schemes) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	byScheme := m.schemeDone[kind]
	if byScheme == nil {
		byScheme = make(map[string]uint64)
		m.schemeDone[kind] = byScheme
	}
	for _, s := range schemes {
		byScheme[s]++
	}
}

// sweepSchemesDone counts one merged sweep per scheme-matrix row.
func (m *metrics) sweepSchemesDone(schemes []string) {
	if len(schemes) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range schemes {
		m.sweepSchemes[s]++
	}
}

// jobsQueued moves the queue gauge by n; cache accounting is separate
// (cacheProbed) because a submission can be rejected after the cache was
// already probed.
func (m *metrics) jobsQueued(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queued += int64(n)
}

// httpStart registers one in-flight request on a route.
func (m *metrics) httpStart(route string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routeLocked(route).inflight++
}

// httpDone completes a route's request accounting. traceID, when the
// request carried one, feeds the route's latency exemplar.
func (m *metrics) httpDone(route string, code int, elapsed time.Duration, traceID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.routeLocked(route)
	rs.inflight--
	rs.byCode[code]++
	rs.seconds.buckets = httpBuckets
	rs.seconds.observeTrace(elapsed.Seconds(), traceID, time.Now())
}

func (m *metrics) routeLocked(route string) *routeStat {
	rs := m.http[route]
	if rs == nil {
		rs = &routeStat{byCode: make(map[int]uint64)}
		m.http[route] = rs
	}
	return rs
}

// panicRecovered counts a handler panic the middleware turned into a 500.
func (m *metrics) panicRecovered() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.httpPanics++
}

func (m *metrics) jobStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queued--
	m.running++
}

// jobOutcome is the terminal accounting bucket for jobFinished.
type jobOutcome int

const (
	outcomeDone jobOutcome = iota
	outcomeFailed
	outcomeCanceled
)

func (m *metrics) jobFinished(kind Kind, outcome jobOutcome, elapsed time.Duration, traceID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	switch outcome {
	case outcomeDone:
		m.done[kind]++
	case outcomeFailed:
		m.failed[kind]++
	case outcomeCanceled:
		m.canceled[kind]++
	}
	h := m.latency[kind]
	if h == nil {
		h = &histogram{}
		m.latency[kind] = h
	}
	h.observeTrace(elapsed.Seconds(), traceID, time.Now())
}

// jobSkipped accounts for a queued job a worker dequeued but did not run
// because it was canceled while waiting: it leaves the queue gauge without
// ever entering the running gauge.
func (m *metrics) jobSkipped(kind Kind) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queued--
	m.canceled[kind]++
}

// jobsRejected counts n refused submissions by reason.
func (m *metrics) jobsRejected(r submitResult, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r == submitClosed {
		m.rejectedDrain += uint64(n)
	} else {
		m.rejectedFull += uint64(n)
	}
}

// snapshotSaved counts successful snapshot writes.
func (m *metrics) snapshotSaved() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snapshots++
}

func (m *metrics) sweepStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepsRunning++
}

func (m *metrics) sweepFinished(err error, canceled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepsRunning--
	switch {
	case canceled:
		m.sweepsCanceled++
	case err != nil:
		m.sweepsFailed++
	default:
		m.sweepsDone++
	}
}

// cacheProbed counts one probe of the result cache as a hit or a miss.
func (m *metrics) cacheProbed(hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
}

// snapshotCacheHits returns the hit counter (used by tests).
func (m *metrics) snapshotCacheHits() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits
}

// tenantQuota is one tenant's point-in-time front-door gauges: fair
// queue occupancy and, for rate-limited tenants, the current token level.
type tenantQuota struct {
	name    string
	depth   int
	tokens  float64
	limited bool
}

// runtimeStats are the point-in-time gauges WriteTo renders alongside the
// accumulated counters: store/cache occupancy plus process-level health.
type runtimeStats struct {
	cacheLen   int
	storeLen   int
	evicted    uint64
	goroutines int
	uptime     time.Duration
	// tenants carries the per-tenant gauge rows in render order.
	tenants []tenantQuota
	// traces is the trace store's counter set (pcmd_traces_*).
	traces tracestore.Stats
}

// WriteTo renders the Prometheus text format. Kinds are emitted in the
// fixed Kinds order and routes sorted by name so the output is stable for
// scrapers and tests.
func (m *metrics) WriteTo(w io.Writer, rt runtimeStats) {
	cacheLen, storeLen, evicted := rt.cacheLen, rt.storeLen, rt.evicted
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# TYPE pcmd_build_info gauge\npcmd_build_info{version=%q,go_version=%q} 1\n",
		version.Version, version.GoVersion())
	fmt.Fprintf(w, "# TYPE pcmd_goroutines gauge\npcmd_goroutines %d\n", rt.goroutines)
	fmt.Fprintf(w, "# TYPE pcmd_uptime_seconds gauge\npcmd_uptime_seconds %g\n", rt.uptime.Seconds())
	fmt.Fprintf(w, "# TYPE pcmd_jobs_tracked gauge\npcmd_jobs_tracked %d\n", storeLen)
	fmt.Fprintf(w, "# TYPE pcmd_jobs_queued gauge\npcmd_jobs_queued %d\n", m.queued)
	fmt.Fprintf(w, "# TYPE pcmd_jobs_running gauge\npcmd_jobs_running %d\n", m.running)
	fmt.Fprintf(w, "# TYPE pcmd_jobs_done_total counter\n")
	for _, k := range Kinds {
		fmt.Fprintf(w, "pcmd_jobs_done_total{kind=%q} %d\n", k, m.done[k])
	}
	fmt.Fprintf(w, "# TYPE pcmd_jobs_failed_total counter\n")
	for _, k := range Kinds {
		fmt.Fprintf(w, "pcmd_jobs_failed_total{kind=%q} %d\n", k, m.failed[k])
	}
	fmt.Fprintf(w, "# TYPE pcmd_jobs_canceled_total counter\n")
	for _, k := range Kinds {
		fmt.Fprintf(w, "pcmd_jobs_canceled_total{kind=%q} %d\n", k, m.canceled[k])
	}
	fmt.Fprintf(w, "# TYPE pcmd_jobs_scheme_total counter\n")
	for _, k := range Kinds {
		byScheme := m.schemeDone[k]
		schemes := make([]string, 0, len(byScheme))
		for s := range byScheme {
			schemes = append(schemes, s)
		}
		sort.Strings(schemes)
		for _, s := range schemes {
			fmt.Fprintf(w, "pcmd_jobs_scheme_total{kind=%q,scheme=%q} %d\n", k, s, byScheme[s])
		}
	}
	fmt.Fprintf(w, "# TYPE pcmd_submit_rejected_total counter\n")
	fmt.Fprintf(w, "pcmd_submit_rejected_total{reason=\"queue_full\"} %d\n", m.rejectedFull)
	fmt.Fprintf(w, "pcmd_submit_rejected_total{reason=\"draining\"} %d\n", m.rejectedDrain)
	fmt.Fprintf(w, "# TYPE pcmd_jobs_evicted_total counter\npcmd_jobs_evicted_total %d\n", evicted)
	fmt.Fprintf(w, "# TYPE pcmd_snapshots_total counter\npcmd_snapshots_total %d\n", m.snapshots)
	fmt.Fprintf(w, "# TYPE pcmd_cache_hits_total counter\npcmd_cache_hits_total %d\n", m.cacheHits)
	fmt.Fprintf(w, "# TYPE pcmd_cache_misses_total counter\npcmd_cache_misses_total %d\n", m.cacheMisses)
	fmt.Fprintf(w, "# TYPE pcmd_cache_entries gauge\npcmd_cache_entries %d\n", cacheLen)
	fmt.Fprintf(w, "# TYPE pcmd_traces_stored gauge\npcmd_traces_stored %d\n", rt.traces.Stored)
	fmt.Fprintf(w, "# TYPE pcmd_traces_bytes gauge\npcmd_traces_bytes %d\n", rt.traces.StoredBytes)
	fmt.Fprintf(w, "# TYPE pcmd_traces_evictions_total counter\npcmd_traces_evictions_total %d\n", rt.traces.Evictions)
	fmt.Fprintf(w, "# TYPE pcmd_traces_fetches_total counter\npcmd_traces_fetches_total %d\n", rt.traces.Fetches)
	fmt.Fprintf(w, "# TYPE pcmd_job_seconds histogram\n")
	for _, k := range Kinds {
		h := m.latency[k]
		if h == nil {
			continue
		}
		writeHistogram(w, "pcmd_job_seconds", fmt.Sprintf("kind=%q", k), h)
	}
	fmt.Fprintf(w, "# TYPE pcmd_sweeps_running gauge\npcmd_sweeps_running %d\n", m.sweepsRunning)
	fmt.Fprintf(w, "# TYPE pcmd_sweeps_total counter\n")
	fmt.Fprintf(w, "pcmd_sweeps_total{outcome=\"done\"} %d\n", m.sweepsDone)
	fmt.Fprintf(w, "pcmd_sweeps_total{outcome=\"failed\"} %d\n", m.sweepsFailed)
	fmt.Fprintf(w, "pcmd_sweeps_total{outcome=\"canceled\"} %d\n", m.sweepsCanceled)
	fmt.Fprintf(w, "# TYPE pcmd_sweeps_scheme_total counter\n")
	sweepSchemes := make([]string, 0, len(m.sweepSchemes))
	for s := range m.sweepSchemes {
		sweepSchemes = append(sweepSchemes, s)
	}
	sort.Strings(sweepSchemes)
	for _, s := range sweepSchemes {
		fmt.Fprintf(w, "pcmd_sweeps_scheme_total{scheme=%q} %d\n", s, m.sweepSchemes[s])
	}

	// Front door: per-tenant admission counters and gauges. Counter rows
	// are emitted for every tenant either counter has seen, sorted for
	// stable scrapes; gauge rows come pre-ordered from the caller.
	tenantNames := make(map[string]bool, len(m.tenantSubmits))
	for name := range m.tenantSubmits {
		tenantNames[name] = true
	}
	for name := range m.tenantThrottles {
		tenantNames[name] = true
	}
	sortedTenants := make([]string, 0, len(tenantNames))
	for name := range tenantNames {
		sortedTenants = append(sortedTenants, name)
	}
	sort.Strings(sortedTenants)
	fmt.Fprintf(w, "# TYPE pcmd_tenant_submitted_total counter\n")
	for _, name := range sortedTenants {
		fmt.Fprintf(w, "pcmd_tenant_submitted_total{tenant=%q} %d\n", name, m.tenantSubmits[name])
	}
	fmt.Fprintf(w, "# TYPE pcmd_tenant_throttled_total counter\n")
	for _, name := range sortedTenants {
		fmt.Fprintf(w, "pcmd_tenant_throttled_total{tenant=%q} %d\n", name, m.tenantThrottles[name])
	}
	fmt.Fprintf(w, "# TYPE pcmd_tenant_queue_depth gauge\n")
	for _, tq := range rt.tenants {
		fmt.Fprintf(w, "pcmd_tenant_queue_depth{tenant=%q} %d\n", tq.name, tq.depth)
	}
	fmt.Fprintf(w, "# TYPE pcmd_tenant_quota_tokens gauge\n")
	for _, tq := range rt.tenants {
		if tq.limited {
			fmt.Fprintf(w, "pcmd_tenant_quota_tokens{tenant=%q} %g\n", tq.name, tq.tokens)
		}
	}
	fmt.Fprintf(w, "# TYPE pcmd_job_panics_total counter\npcmd_job_panics_total %d\n", m.jobPanics)
	fmt.Fprintf(w, "# TYPE pcmd_log_suppressed_total counter\npcmd_log_suppressed_total %d\n", m.logsSuppressed)
	fmt.Fprintf(w, "# TYPE pcmd_sse_active gauge\npcmd_sse_active %d\n", m.sseActive)
	fmt.Fprintf(w, "# TYPE pcmd_sse_streams_total counter\npcmd_sse_streams_total %d\n", m.sseStreams)

	routes := make([]string, 0, len(m.http))
	for route := range m.http {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	fmt.Fprintf(w, "# TYPE pcmd_http_panics_total counter\npcmd_http_panics_total %d\n", m.httpPanics)
	fmt.Fprintf(w, "# TYPE pcmd_http_inflight gauge\n")
	for _, route := range routes {
		fmt.Fprintf(w, "pcmd_http_inflight{route=%q} %d\n", route, m.http[route].inflight)
	}
	fmt.Fprintf(w, "# TYPE pcmd_http_requests_total counter\n")
	for _, route := range routes {
		rs := m.http[route]
		codes := make([]int, 0, len(rs.byCode))
		for code := range rs.byCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "pcmd_http_requests_total{route=%q,code=\"%d\"} %d\n", route, code, rs.byCode[code])
		}
	}
	fmt.Fprintf(w, "# TYPE pcmd_http_request_seconds histogram\n")
	for _, route := range routes {
		rs := m.http[route]
		if rs.seconds.n == 0 {
			continue
		}
		writeHistogram(w, "pcmd_http_request_seconds", fmt.Sprintf("route=%q", route), &rs.seconds)
	}
}

// writeClusterMetrics renders the coordinator's dispatch counters and the
// per-backend health gauges.
func writeClusterMetrics(w io.Writer, snap cluster.MetricsSnapshot, backends []cluster.BackendStatus) {
	fmt.Fprintf(w, "# TYPE pcmd_cluster_dispatch_total counter\npcmd_cluster_dispatch_total %d\n", snap.Dispatched)
	fmt.Fprintf(w, "# TYPE pcmd_cluster_retry_total counter\npcmd_cluster_retry_total %d\n", snap.Retries)
	fmt.Fprintf(w, "# TYPE pcmd_cluster_hedge_total counter\npcmd_cluster_hedge_total %d\n", snap.Hedges)
	fmt.Fprintf(w, "# TYPE pcmd_cluster_hedge_cancel_total counter\npcmd_cluster_hedge_cancel_total %d\n", snap.HedgeCancels)
	fmt.Fprintf(w, "# TYPE pcmd_cluster_shard_failures_total counter\npcmd_cluster_shard_failures_total %d\n", snap.ShardFailures)
	fmt.Fprintf(w, "# TYPE pcmd_cluster_breaker_opens_total counter\npcmd_cluster_breaker_opens_total %d\n", snap.BreakerOpens)
	fmt.Fprintf(w, "# TYPE pcmd_cluster_health_probes_total counter\n")
	fmt.Fprintf(w, "pcmd_cluster_health_probes_total{outcome=\"ok\"} %d\n", snap.ProbesOK)
	fmt.Fprintf(w, "pcmd_cluster_health_probes_total{outcome=\"failed\"} %d\n", snap.ProbesFailed)
	fmt.Fprintf(w, "# TYPE pcmd_cluster_backend_up gauge\n")
	for _, b := range backends {
		up := 0
		if b.Healthy {
			up = 1
		}
		fmt.Fprintf(w, "pcmd_cluster_backend_up{backend=%q} %d\n", b.Name, up)
	}
	fmt.Fprintf(w, "# TYPE pcmd_cluster_backend_inflight gauge\n")
	for _, b := range backends {
		fmt.Fprintf(w, "pcmd_cluster_backend_inflight{backend=%q} %d\n", b.Name, b.Inflight)
	}
}
