package fleetobs

import (
	"strconv"
	"time"
)

// LatencyStats are windowed rates and quantiles recovered from one
// cumulative histogram family over the snapshot window.
type LatencyStats struct {
	Count      float64 `json:"count"`        // observations in the window
	RatePerSec float64 `json:"rate_per_sec"` // Count / window span
	P50ms      float64 `json:"p50_ms"`
	P95ms      float64 `json:"p95_ms"`
	P99ms      float64 `json:"p99_ms"`
	// ExemplarTraceID is the trace behind the family's slowest recent
	// observation — fetch it with `pcmctl trace <id>` / /debug/traces/{id}.
	ExemplarTraceID string  `json:"exemplar_trace_id,omitempty"`
	ExemplarSeconds float64 `json:"exemplar_seconds,omitempty"`
}

// KindStats is one job kind's windowed outcome accounting.
type KindStats struct {
	Done      float64 `json:"done"`
	Failed    float64 `json:"failed"`
	Canceled  float64 `json:"canceled"`
	ErrorRate float64 `json:"error_rate"` // failed / (done+failed)
}

// RouteStats is one HTTP route's windowed accounting.
type RouteStats struct {
	Requests   float64 `json:"requests"`
	RatePerSec float64 `json:"rate_per_sec"`
	ErrorRate  float64 `json:"error_rate"` // 5xx fraction
	P99ms      float64 `json:"p99_ms"`
}

// TenantStats are one tenant's windowed front-door rates and current
// fair-queue depth.
type TenantStats struct {
	SubmitPerSec   float64 `json:"submit_per_sec"`
	ThrottlePerSec float64 `json:"throttle_per_sec"`
	QueueDepth     float64 `json:"queue_depth"`
}

// BackendSnapshot is one scrape target's health as of the latest scrape,
// with windowed rates computed from its scrape history.
type BackendSnapshot struct {
	Name        string    `json:"name"`
	Self        bool      `json:"self,omitempty"` // the coordinator's own self-scrape
	Up          bool      `json:"up"`
	ScrapeError string    `json:"scrape_error,omitempty"`
	LastScrape  time.Time `json:"last_scrape"`

	// Breaker state joined from the coordinator by backend name:
	// "closed"/"open" for dispatch backends, "" for targets the
	// coordinator does not dispatch to.
	Breaker          string `json:"breaker,omitempty"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	Inflight         int64  `json:"inflight,omitempty"`

	Queued        float64 `json:"queued"`
	Running       float64 `json:"running"`
	Goroutines    float64 `json:"goroutines"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Jobs LatencyStats `json:"jobs"`
	HTTP LatencyStats `json:"http"`

	JobKinds map[string]KindStats   `json:"job_kinds,omitempty"`
	Routes   map[string]RouteStats  `json:"routes,omitempty"`
	Tenants  map[string]TenantStats `json:"tenants,omitempty"`
}

// FleetTotals aggregate every up backend over the snapshot window.
type FleetTotals struct {
	Backends      int          `json:"backends"`
	Up            int          `json:"up"`
	BreakersOpen  int          `json:"breakers_open"`
	Queued        float64      `json:"queued"`
	Running       float64      `json:"running"`
	Jobs          LatencyStats `json:"jobs"`
	HTTP          LatencyStats `json:"http"`
	JobErrorRate  float64      `json:"job_error_rate"`
	HTTPErrorRate float64      `json:"http_error_rate"`
}

// FleetSnapshot is the rolling fleet view served by /v1/fleet/status.
type FleetSnapshot struct {
	Time           time.Time         `json:"time"`
	Window         string            `json:"window"` // span behind the windowed rates
	ScrapeInterval string            `json:"scrape_interval"`
	Backends       []BackendSnapshot `json:"backends"`
	Fleet          FleetTotals       `json:"fleet"`
}

// metricsView is one scrape digested into the fields the plane folds:
// parsed once at scrape time so snapshot building never re-parses.
type metricsView struct {
	queued, running      float64
	goroutines, uptime   float64
	jobs                 *Hist            // pcmd_job_seconds merged across kinds
	http                 *Hist            // pcmd_http_request_seconds merged across routes
	routeHists           map[string]*Hist // per-route pcmd_http_request_seconds
	jobDone, jobFailed   map[string]float64
	jobCanceled          map[string]float64
	routeTotal, routeErr map[string]float64
	tenantSubmit         map[string]float64
	tenantThrottle       map[string]float64
	tenantDepth          map[string]float64
}

// digest folds parsed samples into a metricsView.
func digest(samples []Sample) *metricsView {
	v := &metricsView{
		routeHists:     make(map[string]*Hist),
		jobDone:        make(map[string]float64),
		jobFailed:      make(map[string]float64),
		jobCanceled:    make(map[string]float64),
		routeTotal:     make(map[string]float64),
		routeErr:       make(map[string]float64),
		tenantSubmit:   make(map[string]float64),
		tenantThrottle: make(map[string]float64),
		tenantDepth:    make(map[string]float64),
	}
	v.queued, _ = GaugeOf(samples, "pcmd_jobs_queued", nil)
	v.running, _ = GaugeOf(samples, "pcmd_jobs_running", nil)
	v.goroutines, _ = GaugeOf(samples, "pcmd_goroutines", nil)
	v.uptime, _ = GaugeOf(samples, "pcmd_uptime_seconds", nil)
	for _, lh := range HistogramsOf(samples, "pcmd_job_seconds") {
		v.jobs = v.jobs.Merge(lh.Hist)
	}
	for _, lh := range HistogramsOf(samples, "pcmd_http_request_seconds") {
		v.http = v.http.Merge(lh.Hist)
		if route := lh.Labels["route"]; route != "" {
			v.routeHists[route] = lh.Hist
		}
	}
	for i := range samples {
		s := &samples[i]
		switch s.Name {
		case "pcmd_jobs_done_total":
			v.jobDone[s.Label("kind")] += s.Value
		case "pcmd_jobs_failed_total":
			v.jobFailed[s.Label("kind")] += s.Value
		case "pcmd_jobs_canceled_total":
			v.jobCanceled[s.Label("kind")] += s.Value
		case "pcmd_http_requests_total":
			route := s.Label("route")
			v.routeTotal[route] += s.Value
			if code, err := strconv.Atoi(s.Label("code")); err == nil && code >= 500 {
				v.routeErr[route] += s.Value
			}
		case "pcmd_tenant_submitted_total":
			v.tenantSubmit[s.Label("tenant")] += s.Value
		case "pcmd_tenant_throttled_total":
			v.tenantThrottle[s.Label("tenant")] += s.Value
		case "pcmd_tenant_queue_depth":
			v.tenantDepth[s.Label("tenant")] += s.Value
		}
	}
	return v
}

// sumMap totals a counter map.
func sumMap(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

// deltaMap subtracts old from cur per key, clamping negative deltas
// (counter resets) to zero. Keys only old knows are dropped: the
// backend restarted and their windowed rate is unknowable.
func deltaMap(cur, old map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(cur))
	for k, v := range cur {
		d := v
		if old != nil {
			d = v - old[k]
		}
		if d < 0 {
			d = 0
		}
		out[k] = d
	}
	return out
}

// latencyStats converts a windowed histogram into display stats.
func latencyStats(h *Hist, span float64) LatencyStats {
	if h == nil {
		return LatencyStats{}
	}
	ls := LatencyStats{
		Count:           h.Count,
		P50ms:           h.Quantile(0.50) * 1000,
		P95ms:           h.Quantile(0.95) * 1000,
		P99ms:           h.Quantile(0.99) * 1000,
		ExemplarTraceID: h.ExemplarTrace,
		ExemplarSeconds: h.ExemplarValue,
	}
	if span > 0 {
		ls.RatePerSec = h.Count / span
	}
	return ls
}
