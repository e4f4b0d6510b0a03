package fleetobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend renders a synthetic /metrics body whose job counters
// advance by perScrape observations per fetch, all landing in the
// bucket selected by slow (above or below 10ms).
type fakeBackend struct {
	mu        sync.Mutex
	n         int
	perScrape int
	slow      bool
	failCalls atomic.Bool // when set, Fetch errors
}

func (f *fakeBackend) Fetch(ctx context.Context) ([]byte, error) {
	if f.failCalls.Load() {
		return nil, errors.New("connection refused")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n += f.perScrape
	// Fast observations land in the 1ms bucket (p95 ≈ 0.95ms); slow ones
	// all land past the last finite bound, so p95 clamps to 10ms.
	finite := f.n
	var sum float64
	if f.slow {
		finite = 0
		sum = float64(f.n) * 1.5
	} else {
		sum = float64(f.n) * 0.001
	}
	body := fmt.Sprintf(`# TYPE pcmd_jobs_queued gauge
pcmd_jobs_queued 1
pcmd_jobs_running 2
pcmd_goroutines 10
pcmd_uptime_seconds 5
pcmd_jobs_done_total{kind="lifetime"} %d
pcmd_jobs_failed_total{kind="lifetime"} 0
pcmd_job_seconds_bucket{kind="lifetime",le="0.001"} %d
pcmd_job_seconds_bucket{kind="lifetime",le="0.01"} %d
pcmd_job_seconds_bucket{kind="lifetime",le="+Inf"} %d # {trace_id="tr-slow"} 1.5
pcmd_job_seconds_sum{kind="lifetime"} %g
pcmd_job_seconds_count{kind="lifetime"} %d
pcmd_http_requests_total{route="GET /v1/jobs",code="200"} %d
pcmd_http_request_seconds_bucket{route="GET /v1/jobs",le="0.005"} %d
pcmd_http_request_seconds_bucket{route="GET /v1/jobs",le="+Inf"} %d
pcmd_http_request_seconds_sum{route="GET /v1/jobs"} %g
pcmd_http_request_seconds_count{route="GET /v1/jobs"} %d
pcmd_tenant_submitted_total{tenant="acme"} %d
pcmd_tenant_queue_depth{tenant="acme"} 3
`, f.n, finite, finite, f.n, sum, f.n, f.n, f.n, f.n, float64(f.n)*0.001, f.n, f.n)
	return []byte(body), nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	if cfg.Interval == 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Windows == nil {
		cfg.Windows = []time.Duration{100 * time.Millisecond, 300 * time.Millisecond}
	}
	if cfg.CPUProfileDuration == 0 {
		cfg.CPUProfileDuration = -1 // keep unit tests fast; e2e covers profiles
	}
	p := New(cfg)
	p.Start()
	t.Cleanup(p.Close)
	return p
}

func TestPlaneAggregatesTargets(t *testing.T) {
	fast := &fakeBackend{perScrape: 5}
	slow := &fakeBackend{perScrape: 5, slow: true}
	p := testPlane(t, Config{
		Targets: []Target{
			{Name: "local", Self: true, Fetch: fast.Fetch},
			{Name: "http://b2", Fetch: slow.Fetch},
		},
		Cluster: func() []BackendHealth {
			return []BackendHealth{
				{Name: "http://b2", Healthy: true, Inflight: 4},
			}
		},
	})

	waitFor(t, 5*time.Second, "both backends up with windowed jobs", func() bool {
		s := p.Snapshot()
		return len(s.Backends) == 2 && s.Fleet.Up == 2 &&
			s.Backends[0].Jobs.Count > 0 && s.Backends[1].Jobs.Count > 0
	})
	s := p.Snapshot()
	if !s.Backends[0].Self || s.Backends[0].Name != "local" {
		t.Fatalf("first backend should be the self target: %+v", s.Backends[0])
	}
	if s.Backends[1].Breaker != "closed" || s.Backends[1].Inflight != 4 {
		t.Fatalf("cluster join missing: %+v", s.Backends[1])
	}
	if s.Fleet.Queued != 2 || s.Fleet.Running != 4 {
		t.Fatalf("fleet gauges = %g/%g, want 2/4", s.Fleet.Queued, s.Fleet.Running)
	}
	if s.Fleet.Jobs.Count <= 0 || s.Fleet.Jobs.RatePerSec <= 0 {
		t.Fatalf("fleet jobs window empty: %+v", s.Fleet.Jobs)
	}
	// The slow backend's observations land above 10ms; the fleet p99
	// must see them even though the fast backend is sub-ms.
	if s.Fleet.Jobs.P99ms < s.Backends[0].Jobs.P99ms {
		t.Fatalf("fleet p99 %.3f below fast backend p99 %.3f", s.Fleet.Jobs.P99ms, s.Backends[0].Jobs.P99ms)
	}
	if s.Fleet.Jobs.ExemplarTraceID != "tr-slow" {
		t.Fatalf("fleet exemplar = %q, want tr-slow", s.Fleet.Jobs.ExemplarTraceID)
	}
	bs := s.Backends[1]
	if bs.JobKinds["lifetime"].Done <= 0 {
		t.Fatalf("job kinds missing: %+v", bs.JobKinds)
	}
	if bs.Routes["GET /v1/jobs"].RatePerSec <= 0 {
		t.Fatalf("routes missing: %+v", bs.Routes)
	}
	if ten := bs.Tenants["acme"]; ten.SubmitPerSec <= 0 || ten.QueueDepth != 3 {
		t.Fatalf("tenants missing: %+v", bs.Tenants)
	}
}

// TestSnapshotListsTargetsBeforeFirstScrape pins that the fleet's shape
// does not depend on scrape timing: a plane that has not scraped yet
// already reports every configured target, none of them up.
func TestSnapshotListsTargetsBeforeFirstScrape(t *testing.T) {
	b := &fakeBackend{}
	p := New(Config{Targets: []Target{
		{Name: "self", Self: true, Fetch: b.Fetch},
		{Name: "peer", Fetch: b.Fetch},
	}})
	s := p.Snapshot()
	if s.Fleet.Backends != 2 || len(s.Backends) != 2 || s.Fleet.Up != 0 {
		t.Fatalf("pre-scrape snapshot = %+v, want 2 targets, none up", s.Fleet)
	}
	if s.Backends[0].Name != "self" || !s.Backends[0].Self || s.Backends[1].Name != "peer" {
		t.Fatalf("pre-scrape rows = %+v", s.Backends)
	}
	if !s.Time.IsZero() {
		t.Fatalf("pre-scrape snapshot stamped %v, want zero time", s.Time)
	}
}

func TestPlaneScrapeFailureAndRecovery(t *testing.T) {
	b := &fakeBackend{perScrape: 1}
	p := testPlane(t, Config{
		Targets: []Target{{Name: "flappy", Fetch: b.Fetch}},
	})
	waitFor(t, 5*time.Second, "first up scrape", func() bool {
		s := p.Snapshot()
		return len(s.Backends) == 1 && s.Backends[0].Up
	})

	b.failCalls.Store(true)
	waitFor(t, 5*time.Second, "target marked down", func() bool {
		s := p.Snapshot()
		return !s.Backends[0].Up && s.Backends[0].ScrapeError != ""
	})
	// Gauges survive a down scrape from the last good view.
	if s := p.Snapshot(); s.Backends[0].Queued != 1 {
		t.Fatalf("stale gauges lost on failure: %+v", s.Backends[0])
	}

	b.failCalls.Store(false)
	waitFor(t, 5*time.Second, "target recovered", func() bool {
		return p.Snapshot().Backends[0].Up
	})
	var sawDown, sawUp bool
	for _, ev := range p.Timeline().Events() {
		switch ev.Type {
		case "target_down":
			sawDown = true
		case "target_up":
			sawUp = true
		}
	}
	if !sawDown || !sawUp {
		t.Fatalf("timeline missing transitions (down=%v up=%v)", sawDown, sawUp)
	}
	st := p.Stats()
	if st.ScrapesOK == 0 || st.ScrapesFailed == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPlaneSLOBreachTripsExactlyOneIncident(t *testing.T) {
	slow := &fakeBackend{perScrape: 5, slow: true}
	objs, err := ParseSLOs("jobs:p95<5ms")
	if err != nil {
		t.Fatal(err)
	}
	p := testPlane(t, Config{
		Interval:           5 * time.Millisecond,
		Windows:            []time.Duration{30 * time.Millisecond, 60 * time.Millisecond},
		Objectives:         objs,
		Targets:            []Target{{Name: "local", Self: true, Fetch: slow.Fetch}},
		CPUProfileDuration: 20 * time.Millisecond,
		CollectTraces: func(n int) json.RawMessage {
			return json.RawMessage(`[{"summary":{"trace_id":"fake"}}]`)
		},
	})

	waitFor(t, 10*time.Second, "incident captured", func() bool {
		return len(p.Incidents()) == 1
	})
	waitFor(t, 10*time.Second, "incident capture complete", func() bool {
		incs := p.Incidents()
		return len(incs) == 1 && incs[0].Complete
	})

	// The episode keeps breaching; several more scrape rounds must not
	// open a second incident.
	time.Sleep(100 * time.Millisecond)
	incs := p.Incidents()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want exactly 1 per breach episode", len(incs))
	}
	inc, ok := p.Incident(incs[0].ID)
	if !ok {
		t.Fatalf("incident %s not fetchable", incs[0].ID)
	}
	if inc.Objective != "jobs:p95<5ms" || len(inc.Windows) != 2 {
		t.Fatalf("incident evidence: %+v", inc.Windows)
	}
	if !strings.Contains(string(inc.Traces), "fake") {
		t.Fatalf("incident traces missing: %s", inc.Traces)
	}
	if !strings.Contains(inc.GoroutineProfile, "goroutine") {
		t.Fatalf("goroutine profile missing: %q", clip(inc.GoroutineProfile))
	}
	if len(inc.CPUProfile) == 0 && inc.CPUProfileError == "" {
		t.Fatal("CPU profile neither captured nor errored")
	}
	if len(inc.Snapshot.Backends) != 1 || !inc.Snapshot.Backends[0].Up {
		t.Fatalf("incident snapshot: %+v", inc.Snapshot.Backends)
	}
	for _, ev := range inc.Timeline {
		if ev.Type == "snapshot" {
			t.Fatal("incident timeline should exclude bulky snapshot events")
		}
	}

	// Snapshot reflects the breach and the ring.
	s := p.Snapshot()
	if len(s.SLOs) != 1 || !s.SLOs[0].Breaching || s.SLOs[0].Since == nil {
		t.Fatalf("snapshot SLOs: %+v", s.SLOs)
	}
	if s.Incidents.Total != 1 || s.Incidents.Stored != 1 || s.Incidents.LastID != incs[0].ID {
		t.Fatalf("snapshot incident info: %+v", s.Incidents)
	}
}

func TestPlaneBreachRecoveryAllowsNewIncident(t *testing.T) {
	b := &fakeBackend{perScrape: 5, slow: true}
	objs, err := ParseSLOs("jobs:p95<5ms")
	if err != nil {
		t.Fatal(err)
	}
	p := testPlane(t, Config{
		Interval:   5 * time.Millisecond,
		Windows:    []time.Duration{30 * time.Millisecond, 60 * time.Millisecond},
		Objectives: objs,
		Targets:    []Target{{Name: "local", Fetch: b.Fetch}},
	})
	waitFor(t, 10*time.Second, "first incident", func() bool { return len(p.Incidents()) == 1 })

	// Traffic turns fast: the windows drain and the SLO recovers.
	b.mu.Lock()
	b.slow = false
	b.mu.Unlock()
	waitFor(t, 10*time.Second, "slo recovered", func() bool {
		s := p.Snapshot()
		return len(s.SLOs) == 1 && !s.SLOs[0].Breaching
	})

	// Slow again: a new episode, a second incident.
	b.mu.Lock()
	b.slow = true
	b.mu.Unlock()
	waitFor(t, 10*time.Second, "second incident", func() bool { return len(p.Incidents()) == 2 })
}

func TestPlaneCloseIsLeakFreeAndIdempotent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	b := &fakeBackend{perScrape: 5, slow: true}
	objs, _ := ParseSLOs("jobs:p95<5ms")
	p := New(Config{
		Interval:           5 * time.Millisecond,
		Windows:            []time.Duration{20 * time.Millisecond, 40 * time.Millisecond},
		Objectives:         objs,
		Targets:            []Target{{Name: "local", Fetch: b.Fetch}},
		CPUProfileDuration: 10 * time.Second, // Close must cut this short
	})
	p.Start()
	waitFor(t, 10*time.Second, "incident open (CPU profile in flight)", func() bool {
		return len(p.Incidents()) == 1
	})
	start := time.Now()
	p.Close()
	p.Close() // idempotent
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v; should cut the 10s CPU profile short", elapsed)
	}
	waitFor(t, 5*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})
	if incs := p.Incidents(); len(incs) != 1 || !incs[0].Complete {
		t.Fatalf("incident should complete on Close: %+v", incs)
	}
}

func TestIncidentRingBound(t *testing.T) {
	r := newIncidentRing(2)
	for i := 0; i < 5; i++ {
		r.add(&Incident{Time: time.Now()})
	}
	if info := r.counts(); info.Total != 5 || info.Stored != 2 || info.LastID != "inc-000005" {
		t.Fatalf("ring counts = %+v", info)
	}
	if _, ok := r.get("inc-000001"); ok {
		t.Fatal("evicted incident still fetchable")
	}
	// complete on an evicted ID must not panic or resurrect it.
	r.complete("inc-000001", "g", nil, 0, "")
	list := r.list()
	if len(list) != 2 || list[0].ID != "inc-000005" || list[1].ID != "inc-000004" {
		t.Fatalf("list = %+v", list)
	}
}
