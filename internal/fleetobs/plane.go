package fleetobs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"runtime/pprof"
	"sort"
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
	// Windows are the burn-rate evaluation windows, ascending (default
	// 1m, 5m). The shortest is also the snapshot's display window.
	Windows []time.Duration
	// Objectives are the configured SLOs (may be empty: the snapshot
	// still rolls, nothing can breach).
	Objectives []Objective
	// Targets are the scrape destinations. At least one is required for
	// the plane to be useful, but an empty list is tolerated.
	Targets []Target
	// Cluster, when set, supplies breaker state to join into snapshots.
	Cluster func() []BackendHealth
	// CollectTraces, when set, returns the most recent completed traces
	// as JSON for incident bundles.
	CollectTraces func(n int) json.RawMessage
	// MaxIncidents bounds the incident ring (default 8).
	MaxIncidents int
	// CPUProfileDuration sizes the per-incident CPU profile (default
	// 5s; negative disables CPU profiling).
	CPUProfileDuration time.Duration
	// FetchTimeout bounds one target fetch (default 5s, capped at the
	// interval when the interval is shorter).
	FetchTimeout time.Duration
	// TimelineCap bounds the plane's flight recorder (default 64).
	TimelineCap int
	// IncidentTraces is how many recent traces an incident embeds
	// (default 8).
	IncidentTraces int
	// Logger receives scrape errors and incident trips (nil: silent).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{time.Minute, 5 * time.Minute}
	}
	sort.Slice(c.Windows, func(i, j int) bool { return c.Windows[i] < c.Windows[j] })
	if c.MaxIncidents <= 0 {
		c.MaxIncidents = 8
	}
	if c.CPUProfileDuration == 0 {
		c.CPUProfileDuration = 5 * time.Second
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 5 * time.Second
	}
	if c.FetchTimeout > c.Interval {
		c.FetchTimeout = c.Interval
	}
	if c.TimelineCap <= 0 {
		c.TimelineCap = 64
	}
	if c.IncidentTraces <= 0 {
		c.IncidentTraces = 8
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(nopWriter{}, nil))
	}
	return c
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// scrapeRec is one scrape of one target: when, the digested view (nil
// on failure), and the error string.
type scrapeRec struct {
	at   time.Time
	view *metricsView
	err  string
}

// sloState tracks one objective's breach episode across scrapes.
type sloState struct {
	breaching bool
	since     time.Time
}

// Stats is the plane's own accounting, rendered into /metrics.
type Stats struct {
	ScrapesOK       uint64
	ScrapesFailed   uint64
	IncidentsTotal  uint64
	IncidentsStored int
	Breaching       int
	LastScrape      time.Time
}

// Plane is the fleet health plane: a scrape loop over every backend's
// /metrics, a rolling FleetSnapshot, SLO burn-rate evaluation, and the
// incident ring. Start it once; Close is idempotent-safe to call after
// a failed start and waits for the loop and any in-flight incident
// capture to finish.
type Plane struct {
	cfg       Config
	timeline  *obs.Timeline
	incidents *incidentRing

	stop      chan struct{}
	done      chan struct{}
	captureWG sync.WaitGroup
	closeOnce sync.Once

	mu         sync.Mutex
	history    map[string][]scrapeRec // per target name, oldest first
	targetUp   map[string]bool
	sloStates  map[string]*sloState
	lastSnap   *FleetSnapshot
	scrapesOK  uint64
	scrapesErr uint64
}

// New builds a Plane (not yet scraping; call Start).
func New(cfg Config) *Plane {
	cfg = cfg.withDefaults()
	return &Plane{
		cfg:       cfg,
		timeline:  obs.NewTimeline(cfg.TimelineCap),
		incidents: newIncidentRing(cfg.MaxIncidents),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		history:   make(map[string][]scrapeRec),
		targetUp:  make(map[string]bool),
		sloStates: make(map[string]*sloState),
	}
}

// Timeline exposes the plane's flight recorder. Every scrape appends a
// "snapshot" event whose Msg is the compact FleetSnapshot JSON — the
// stream behind GET /v1/fleet/status?watch=1 — plus transition events
// (target_down/target_up, slo_breach/slo_recovered, incident).
func (p *Plane) Timeline() *obs.Timeline { return p.timeline }

// Start launches the scrape loop: one immediate scrape so the snapshot
// is live at boot, then one per interval until Close.
func (p *Plane) Start() {
	go p.loop()
}

// Close stops the loop and waits for it and any in-flight incident
// capture to finish. A running CPU profile is cut short.
func (p *Plane) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
	<-p.done
	p.captureWG.Wait()
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

// scrapeAll fetches every target in parallel, folds the results into
// history, rebuilds the snapshot, and evaluates the SLOs.
func (p *Plane) scrapeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.FetchTimeout)
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

// fold ingests one round of scrapes, prunes history, rebuilds the
// snapshot, and runs SLO evaluation + incident logic.
func (p *Plane) fold(now time.Time, recs []scrapeRec) {
	maxAge := p.cfg.Windows[len(p.cfg.Windows)-1] + 2*p.cfg.Interval

	p.mu.Lock()
	for i, tgt := range p.cfg.Targets {
		rec := recs[i]
		h := append(p.history[tgt.Name], rec)
		// Prune beyond the longest window, but always keep enough for a
		// delta pair.
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
	slos, trips := p.evaluateLocked(now)
	snap.SLOs = slos
	snap.Incidents = p.incidents.counts()
	p.lastSnap = &snap
	p.mu.Unlock()

	// Publish and trip outside the lock: timeline fanout and incident
	// capture must not hold up a concurrent Snapshot().
	if data, err := json.Marshal(snap); err == nil {
		p.timeline.AddAt(now, "snapshot", string(data))
	}
	for _, st := range trips {
		p.trip(now, st, snap)
	}
}

// evaluateLocked runs every objective over the configured windows and
// returns the statuses plus the objectives that just transitioned into
// breach (each trips exactly one incident per episode).
func (p *Plane) evaluateLocked(now time.Time) (statuses []SLOStatus, trips []SLOStatus) {
	if len(p.cfg.Objectives) == 0 {
		return nil, nil
	}
	aggs := make([]*fleetAgg, len(p.cfg.Windows))
	for i, w := range p.cfg.Windows {
		aggs[i] = p.fleetWindowLocked(now, w)
	}
	for _, obj := range p.cfg.Objectives {
		st := obj.evaluate(p.cfg.Windows, aggs)
		state := p.sloStates[obj.Name]
		if state == nil {
			state = &sloState{}
			p.sloStates[obj.Name] = state
		}
		if st.Breaching && !state.breaching {
			state.breaching, state.since = true, now
			trips = append(trips, st)
		} else if !st.Breaching && state.breaching {
			state.breaching = false
			p.timeline.AddAt(now, "slo_recovered", obj.Name)
			p.cfg.Logger.Info("SLO recovered", "slo", obj.Name)
		}
		if state.breaching {
			since := state.since
			st.Since = &since
		}
		statuses = append(statuses, st)
	}
	return statuses, trips
}

// trip opens one incident: snapshot + traces + timeline immediately,
// goroutine + CPU profiles asynchronously (a CPU profile takes seconds
// and must not stall the scrape loop).
func (p *Plane) trip(now time.Time, st SLOStatus, snap FleetSnapshot) {
	inc := &Incident{
		Time:      now,
		Objective: st.Name,
		Reason:    breachReason(st),
		Windows:   st.Windows,
		Snapshot:  snap,
	}
	if p.cfg.CollectTraces != nil {
		inc.Traces = p.cfg.CollectTraces(p.cfg.IncidentTraces)
	}
	inc.Timeline = planeTimelineSlice(p.timeline.Events())
	id := p.incidents.add(inc)
	p.timeline.AddAt(now, "slo_breach", st.Name, "incident", id)
	p.timeline.AddAt(now, "incident", id, "slo", st.Name)
	p.cfg.Logger.Warn("SLO breach: incident captured", "slo", st.Name, "incident", id)

	p.captureWG.Add(1)
	go p.captureProfiles(id)
}

// captureProfiles grabs the goroutine dump and (when enabled) a CPU
// profile, then completes the incident. Close cuts the CPU profile
// short rather than waiting out its full duration.
func (p *Plane) captureProfiles(id string) {
	defer p.captureWG.Done()
	var gbuf bytes.Buffer
	if prof := pprof.Lookup("goroutine"); prof != nil {
		_ = prof.WriteTo(&gbuf, 1)
	}
	var cpu []byte
	var cpuErr string
	var cpuSecs float64
	if d := p.cfg.CPUProfileDuration; d > 0 {
		var cbuf bytes.Buffer
		start := time.Now()
		// Only one CPU profile can run process-wide; a concurrent
		// incident (or an operator's /debug/pprof/profile) wins the race
		// and this capture records the error instead.
		if err := pprof.StartCPUProfile(&cbuf); err != nil {
			cpuErr = err.Error()
		} else {
			select {
			case <-time.After(d):
			case <-p.stop:
			}
			pprof.StopCPUProfile()
			cpu = cbuf.Bytes()
			cpuSecs = time.Since(start).Seconds()
		}
	}
	p.incidents.complete(id, gbuf.String(), cpu, cpuSecs, cpuErr)
}

// planeTimelineSlice copies the flight recorder minus the bulky
// "snapshot" payload events (the incident already embeds the snapshot).
func planeTimelineSlice(events []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(events))
	for _, ev := range events {
		if ev.Type == "snapshot" {
			continue
		}
		out = append(out, ev)
	}
	return out
}

func breachReason(st SLOStatus) string {
	for _, w := range st.Windows {
		if w.Burning() {
			data, _ := json.Marshal(w)
			return st.Name + " burning: " + string(data)
		}
	}
	return st.Name + " burning"
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

// Incidents lists captured incidents, newest first.
func (p *Plane) Incidents() []IncidentSummary { return p.incidents.list() }

// Incident fetches one incident bundle by ID.
func (p *Plane) Incident(id string) (Incident, bool) { return p.incidents.get(id) }

// Stats reports the plane's own accounting for /metrics.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{ScrapesOK: p.scrapesOK, ScrapesFailed: p.scrapesErr}
	if p.lastSnap != nil {
		st.LastScrape = p.lastSnap.Time
		for _, s := range p.lastSnap.SLOs {
			if s.Breaching {
				st.Breaching++
			}
		}
	}
	info := p.incidents.counts()
	st.IncidentsTotal, st.IncidentsStored = info.Total, info.Stored
	return st
}

// windowPairLocked returns the latest successful scrape and the anchor
// scrape for a window (the newest successful scrape at least window old,
// or the oldest available). ok is false without two successful scrapes.
func windowPairLocked(h []scrapeRec, now time.Time, window time.Duration) (latest, anchor *scrapeRec, ok bool) {
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

// fleetAgg is one window's fleet-level aggregate, feeding SLO math.
type fleetAgg struct {
	span               float64
	jobs, http         *Hist
	jobDone, jobFailed float64
	httpTotal, httpErr float64
}

// fleetWindowLocked merges every target's windowed deltas for one window.
// Returns nil when no target has a usable scrape pair yet.
func (p *Plane) fleetWindowLocked(now time.Time, window time.Duration) *fleetAgg {
	var agg *fleetAgg
	for _, tgt := range p.cfg.Targets {
		latest, anchor, ok := windowPairLocked(p.history[tgt.Name], now, window)
		if !ok {
			continue
		}
		if agg == nil {
			agg = &fleetAgg{}
		}
		if span := latest.at.Sub(anchor.at).Seconds(); span > agg.span {
			agg.span = span
		}
		cur, old := latest.view, anchor.view
		agg.jobs = agg.jobs.Merge(cur.jobs.Delta(old.jobs))
		agg.http = agg.http.Merge(cur.http.Delta(old.http))
		agg.jobDone += sumMap(deltaMap(cur.jobDone, old.jobDone))
		agg.jobFailed += sumMap(deltaMap(cur.jobFailed, old.jobFailed))
		agg.httpTotal += sumMap(deltaMap(cur.routeTotal, old.routeTotal))
		agg.httpErr += sumMap(deltaMap(cur.routeErr, old.routeErr))
	}
	return agg
}

// buildSnapshotLocked assembles the rolling FleetSnapshot from history
// (minus SLOs/incidents, which the caller attaches).
func (p *Plane) buildSnapshotLocked(now time.Time) FleetSnapshot {
	window := p.cfg.Windows[0]
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
	for _, tgt := range p.cfg.Targets {
		bs := p.buildBackendLocked(tgt, now, window)
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
	}
	if agg := p.fleetWindowLocked(now, window); agg != nil {
		snap.Fleet.Jobs = latencyStats(agg.jobs, agg.span)
		snap.Fleet.HTTP = latencyStats(agg.http, agg.span)
		if total := agg.jobDone + agg.jobFailed; total > 0 {
			snap.Fleet.JobErrorRate = agg.jobFailed / total
		}
		if agg.httpTotal > 0 {
			snap.Fleet.HTTPErrorRate = agg.httpErr / agg.httpTotal
		}
	}
	return snap
}

// buildBackendLocked assembles one backend's snapshot row.
func (p *Plane) buildBackendLocked(tgt Target, now time.Time, window time.Duration) BackendSnapshot {
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

	latest, anchor, ok := windowPairLocked(h, now, window)
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
