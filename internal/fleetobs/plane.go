package fleetobs

import (
	"context"
	"encoding/json"
	"log/slog"
	"sync"
	"time"

	"pcmcomp/internal/obs"
)

// Target is one scrape destination: a backend name and a fetcher that
// returns its /metrics body. The coordinator's own metrics use an
// in-process fetcher (no HTTP round trip); peers use a plain HTTP GET.
type Target struct {
	Name  string
	Self  bool // the coordinator's own self-scrape
	Fetch func(ctx context.Context) ([]byte, error)
}

// BackendHealth is the coordinator's dispatch-side view of one backend,
// joined into the snapshot by name.
type BackendHealth struct {
	Name             string
	Healthy          bool
	ConsecutiveFails int
	Inflight         int64
}

// Config wires a Plane.
type Config struct {
	// Interval is the scrape cadence (default 5s).
	Interval time.Duration
	// Targets are the scrape destinations. At least one is required for
	// the plane to be useful, but an empty list is tolerated.
	Targets []Target
	// Cluster, when set, supplies breaker state to join into snapshots.
	Cluster func() []BackendHealth
	// Logger receives scrape failures and recoveries (nil: silent).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Fixed plane bounds: each has one value in use, so none is a Config
// field.
const (
	// window is the span behind the snapshot's windowed rates and
	// quantiles.
	window = time.Minute
	// fetchTimeout bounds one target fetch; a shorter Interval caps it.
	fetchTimeout = 5 * time.Second
	// timelineCap bounds the plane's flight recorder.
	timelineCap = 64
)

// scrapeRec is one scrape of one target: when, the digested view (nil
// on failure), and the error string.
type scrapeRec struct {
	at   time.Time
	view *metricsView
	err  string
}

// Stats is the plane's own accounting, rendered into /metrics.
type Stats struct {
	ScrapesOK     uint64
	ScrapesFailed uint64
}

// Plane is the fleet health plane: a scrape loop over every backend's
// /metrics and a rolling FleetSnapshot. Start it once; Close stops the
// loop, waits for it to finish, and is safe to call more than once.
type Plane struct {
	cfg      Config
	timeline *obs.Timeline

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	mu         sync.Mutex
	history    map[string][]scrapeRec // per target name, oldest first
	targetUp   map[string]bool
	lastSnap   *FleetSnapshot
	scrapesOK  uint64
	scrapesErr uint64
}

// New builds a Plane (not yet scraping; call Start).
func New(cfg Config) *Plane {
	cfg = cfg.withDefaults()
	return &Plane{
		cfg:      cfg,
		timeline: obs.NewTimeline(timelineCap),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		history:  make(map[string][]scrapeRec),
		targetUp: make(map[string]bool),
	}
}

// Timeline exposes the plane's flight recorder. Every scrape appends a
// "snapshot" event whose Msg is the compact FleetSnapshot JSON — the
// stream behind GET /v1/fleet/status?watch=1 — plus target_down and
// target_up transition events.
func (p *Plane) Timeline() *obs.Timeline { return p.timeline }

// Start launches the scrape loop: one immediate scrape so the snapshot
// is live at boot, then one per interval until Close.
func (p *Plane) Start() {
	go p.loop()
}

// Close stops the loop and waits for it to finish. A fetch in flight is
// canceled rather than waited out.
func (p *Plane) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Plane) loop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	p.scrapeAll()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.scrapeAll()
		}
	}
}

// scrapeAll fetches every target in parallel and folds the results into
// history and the snapshot.
func (p *Plane) scrapeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), min(fetchTimeout, p.cfg.Interval))
	defer cancel()
	go func() { // a Close during a slow fetch aborts it
		select {
		case <-p.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	now := time.Now()
	recs := make([]scrapeRec, len(p.cfg.Targets))
	var wg sync.WaitGroup
	for i, tgt := range p.cfg.Targets {
		wg.Add(1)
		go func(i int, tgt Target) {
			defer wg.Done()
			rec := scrapeRec{at: now}
			body, err := tgt.Fetch(ctx)
			if err == nil {
				var samples []Sample
				if samples, err = ParseExposition(body); err == nil {
					rec.view = digest(samples)
				}
			}
			if err != nil {
				rec.err = err.Error()
			}
			recs[i] = rec
		}(i, tgt)
	}
	wg.Wait()

	select {
	case <-p.stop: // shutting down: don't publish a torn scrape
		return
	default:
	}

	p.fold(now, recs)
}

// fold ingests one round of scrapes, prunes history, and rebuilds and
// publishes the snapshot.
func (p *Plane) fold(now time.Time, recs []scrapeRec) {
	maxAge := window + 2*p.cfg.Interval

	p.mu.Lock()
	for i, tgt := range p.cfg.Targets {
		rec := recs[i]
		h := append(p.history[tgt.Name], rec)
		// Prune beyond the window, but always keep enough for a delta
		// pair.
		cut := 0
		for cut < len(h)-2 && now.Sub(h[cut].at) > maxAge {
			cut++
		}
		if cut > 0 {
			h = append(h[:0:0], h[cut:]...)
		}
		p.history[tgt.Name] = h

		up := rec.view != nil
		wasUp, known := p.targetUp[tgt.Name]
		p.targetUp[tgt.Name] = up
		if up {
			p.scrapesOK++
		} else {
			p.scrapesErr++
		}
		switch {
		case !up && (!known || wasUp):
			p.timeline.AddAt(now, "target_down", rec.err, "target", tgt.Name)
			p.cfg.Logger.Warn("fleetobs scrape failed", "target", tgt.Name, "err", rec.err)
		case up && known && !wasUp:
			p.timeline.AddAt(now, "target_up", "", "target", tgt.Name)
			p.cfg.Logger.Info("fleetobs target recovered", "target", tgt.Name)
		}
	}

	snap := p.buildSnapshotLocked(now)
	p.lastSnap = &snap
	p.mu.Unlock()

	// Publish outside the lock: timeline fanout must not hold up a
	// concurrent Snapshot().
	if data, err := json.Marshal(snap); err == nil {
		p.timeline.AddAt(now, "snapshot", string(data))
	}
}

// Snapshot returns the most recent fleet snapshot. Before the first
// scrape has folded it still lists every configured target (none up yet,
// zero Time), so the fleet's shape never depends on scrape timing.
func (p *Plane) Snapshot() FleetSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastSnap == nil {
		snap := p.buildSnapshotLocked(time.Now())
		snap.Time = time.Time{}
		return snap
	}
	return *p.lastSnap
}

// Stats reports the plane's own accounting for /metrics.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{ScrapesOK: p.scrapesOK, ScrapesFailed: p.scrapesErr}
}

// windowPairLocked returns the latest successful scrape and the anchor
// scrape for the window (the newest successful scrape at least window
// old, or the oldest available). ok is false without two successful
// scrapes.
func windowPairLocked(h []scrapeRec, now time.Time) (latest, anchor *scrapeRec, ok bool) {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].view == nil {
			continue
		}
		if latest == nil {
			latest = &h[i]
			continue
		}
		anchor = &h[i]
		if now.Sub(h[i].at) >= window {
			break
		}
	}
	return latest, anchor, latest != nil && anchor != nil
}

// buildSnapshotLocked assembles the rolling FleetSnapshot from history.
// The fleet's windowed totals merge every target's deltas over the
// window.
func (p *Plane) buildSnapshotLocked(now time.Time) FleetSnapshot {
	snap := FleetSnapshot{
		Time:           now,
		Window:         window.String(),
		ScrapeInterval: p.cfg.Interval.String(),
	}
	var health map[string]BackendHealth
	if p.cfg.Cluster != nil {
		health = make(map[string]BackendHealth)
		for _, bh := range p.cfg.Cluster() {
			health[bh.Name] = bh
		}
	}
	var jobsHist, httpHist *Hist
	var span, jobDone, jobFailed, httpTotal, httpErr float64
	for _, tgt := range p.cfg.Targets {
		bs := p.buildBackendLocked(tgt, now)
		if bh, ok := health[tgt.Name]; ok {
			if bh.Healthy {
				bs.Breaker = "closed"
			} else {
				bs.Breaker = "open"
				snap.Fleet.BreakersOpen++
			}
			bs.ConsecutiveFails = bh.ConsecutiveFails
			bs.Inflight = bh.Inflight
		}
		snap.Backends = append(snap.Backends, bs)
		snap.Fleet.Backends++
		if bs.Up {
			snap.Fleet.Up++
		}
		snap.Fleet.Queued += bs.Queued
		snap.Fleet.Running += bs.Running

		latest, anchor, ok := windowPairLocked(p.history[tgt.Name], now)
		if !ok {
			continue
		}
		span = max(span, latest.at.Sub(anchor.at).Seconds())
		cur, old := latest.view, anchor.view
		jobsHist = jobsHist.Merge(cur.jobs.Delta(old.jobs))
		httpHist = httpHist.Merge(cur.http.Delta(old.http))
		jobDone += sumMap(deltaMap(cur.jobDone, old.jobDone))
		jobFailed += sumMap(deltaMap(cur.jobFailed, old.jobFailed))
		httpTotal += sumMap(deltaMap(cur.routeTotal, old.routeTotal))
		httpErr += sumMap(deltaMap(cur.routeErr, old.routeErr))
	}
	snap.Fleet.Jobs = latencyStats(jobsHist, span)
	snap.Fleet.HTTP = latencyStats(httpHist, span)
	if total := jobDone + jobFailed; total > 0 {
		snap.Fleet.JobErrorRate = jobFailed / total
	}
	if httpTotal > 0 {
		snap.Fleet.HTTPErrorRate = httpErr / httpTotal
	}
	return snap
}

// buildBackendLocked assembles one backend's snapshot row.
func (p *Plane) buildBackendLocked(tgt Target, now time.Time) BackendSnapshot {
	bs := BackendSnapshot{Name: tgt.Name, Self: tgt.Self}
	h := p.history[tgt.Name]
	if len(h) == 0 {
		return bs
	}
	last := h[len(h)-1]
	bs.LastScrape = last.at
	bs.Up = last.view != nil
	bs.ScrapeError = last.err
	cur := last.view
	if cur == nil {
		// Serve gauges from the most recent good scrape so a single
		// flaky fetch doesn't blank the row.
		for i := len(h) - 1; i >= 0; i-- {
			if h[i].view != nil {
				cur = h[i].view
				break
			}
		}
		if cur == nil {
			return bs
		}
	}
	bs.Queued, bs.Running = cur.queued, cur.running
	bs.Goroutines, bs.UptimeSeconds = cur.goroutines, cur.uptime

	latest, anchor, ok := windowPairLocked(h, now)
	if !ok {
		return bs
	}
	span := latest.at.Sub(anchor.at).Seconds()
	curV, oldV := latest.view, anchor.view
	bs.Jobs = latencyStats(curV.jobs.Delta(oldV.jobs), span)
	bs.HTTP = latencyStats(curV.http.Delta(oldV.http), span)

	done := deltaMap(curV.jobDone, oldV.jobDone)
	failed := deltaMap(curV.jobFailed, oldV.jobFailed)
	canceled := deltaMap(curV.jobCanceled, oldV.jobCanceled)
	for kind := range done {
		ks := KindStats{Done: done[kind], Failed: failed[kind], Canceled: canceled[kind]}
		if total := ks.Done + ks.Failed; total > 0 {
			ks.ErrorRate = ks.Failed / total
		}
		if ks.Done+ks.Failed+ks.Canceled > 0 {
			if bs.JobKinds == nil {
				bs.JobKinds = make(map[string]KindStats)
			}
			bs.JobKinds[kind] = ks
		}
	}

	total := deltaMap(curV.routeTotal, oldV.routeTotal)
	errs := deltaMap(curV.routeErr, oldV.routeErr)
	for route, n := range total {
		if n <= 0 {
			continue
		}
		rs := RouteStats{Requests: n}
		if span > 0 {
			rs.RatePerSec = n / span
		}
		rs.ErrorRate = errs[route] / n
		if rh := curV.routeHists[route]; rh != nil {
			rs.P99ms = rh.Delta(oldV.routeHists[route]).Quantile(0.99) * 1000
		}
		if bs.Routes == nil {
			bs.Routes = make(map[string]RouteStats)
		}
		bs.Routes[route] = rs
	}

	submits := deltaMap(curV.tenantSubmit, oldV.tenantSubmit)
	throttles := deltaMap(curV.tenantThrottle, oldV.tenantThrottle)
	names := make(map[string]bool, len(submits)+len(throttles))
	for n := range submits {
		names[n] = true
	}
	for n := range throttles {
		names[n] = true
	}
	for name := range names {
		ts := TenantStats{QueueDepth: curV.tenantDepth[name]}
		if span > 0 {
			ts.SubmitPerSec = submits[name] / span
			ts.ThrottlePerSec = throttles[name] / span
		}
		if ts.SubmitPerSec > 0 || ts.ThrottlePerSec > 0 || ts.QueueDepth > 0 {
			if bs.Tenants == nil {
				bs.Tenants = make(map[string]TenantStats)
			}
			bs.Tenants[name] = ts
		}
	}
	return bs
}
