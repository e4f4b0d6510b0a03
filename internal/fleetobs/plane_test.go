package fleetobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// TestPlaneCloseIsLeakFreeAndIdempotent pins that Close cancels a fetch
// in flight instead of waiting out its timeout, publishes nothing from
// the torn scrape, leaks no goroutine, and may be called twice.
func TestPlaneCloseIsLeakFreeAndIdempotent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fetching := make(chan struct{}, 1)
	p := New(Config{
		Interval: time.Hour, // the fetch timeout is then fetchTimeout
		Targets: []Target{{Name: "stuck", Fetch: func(ctx context.Context) ([]byte, error) {
			select {
			case fetching <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}}},
	})
	p.Start()
	select {
	case <-fetching:
	case <-time.After(5 * time.Second):
		t.Fatal("first scrape never started its fetch")
	}
	start := time.Now()
	p.Close()
	p.Close() // idempotent
	if elapsed := time.Since(start); elapsed > fetchTimeout/2 {
		t.Fatalf("Close took %v; it should cancel the fetch, not wait out its %v timeout", elapsed, fetchTimeout)
	}
	if st := p.Stats(); st.ScrapesOK+st.ScrapesFailed != 0 {
		t.Fatalf("the scrape cut by Close was folded: %+v", st)
	}
	waitFor(t, 5*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestPlaneHistoryBoundedSoak folds hours of 1 s scrape rounds on a
// synthetic clock, with scattered failed scrapes and one long outage:
// however long the plane runs, each target keeps only the window's worth
// of history and the flight recorder stays at its cap.
func TestPlaneHistoryBoundedSoak(t *testing.T) {
	const (
		interval = time.Second
		rounds   = 10_000
	)
	b := &fakeBackend{perScrape: 5}
	targets := []Target{{Name: "self", Self: true}, {Name: "b1"}, {Name: "b2"}}
	p := New(Config{Interval: interval, Targets: targets})
	maxHistory := int(window/interval) + 3

	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for r := 0; r < rounds; r++ {
		now = now.Add(interval)
		body, _ := b.Fetch(context.Background())
		samples, err := ParseExposition(body)
		if err != nil {
			t.Fatal(err)
		}
		view := digest(samples)
		recs := make([]scrapeRec, len(targets))
		for i := range recs {
			recs[i] = scrapeRec{at: now, view: view}
			failed := (r+i)%7 == 0 || (i == 2 && r >= 3000 && r < 3500)
			if failed {
				recs[i] = scrapeRec{at: now, err: "connection refused"}
			}
		}
		p.fold(now, recs)
		for _, tgt := range targets {
			if n := len(p.history[tgt.Name]); n > maxHistory {
				t.Fatalf("round %d: %s keeps %d scrapes, want <= %d", r, tgt.Name, n, maxHistory)
			}
		}
		if n := len(p.Timeline().Events()); n > timelineCap {
			t.Fatalf("round %d: timeline holds %d events, want <= %d", r, n, timelineCap)
		}
	}
	s := p.Snapshot()
	if s.Fleet.Backends != 3 || s.Fleet.Jobs.Count <= 0 {
		t.Fatalf("final snapshot lost the fleet: %+v", s.Fleet)
	}
}
