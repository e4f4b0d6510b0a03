package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcmcomp/internal/fleetobs"
)

// fetchFleetStatus GETs /v1/fleet/status and decodes the snapshot.
func fetchFleetStatus(t *testing.T, ts *httptest.Server) fleetobs.FleetSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/fleet/status: %d", resp.StatusCode)
	}
	var snap fleetobs.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// fetchIncidents GETs /debug/incidents.
func fetchIncidents(t *testing.T, ts *httptest.Server) (list []fleetobs.IncidentSummary, total uint64) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/incidents: %d", resp.StatusCode)
	}
	var doc struct {
		Incidents []fleetobs.IncidentSummary `json:"incidents"`
		Total     uint64                     `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Incidents, doc.Total
}

// TestFleetHealthPlaneEndToEnd is the health-plane e2e: a coordinator
// scrapes itself plus two real backend daemons, /v1/fleet/status
// aggregates all three, an impossible latency SLO (jobs p95 < 1ms, when
// the lowest histogram bucket is 10ms) breaches as soon as any job
// completes, and the breach captures exactly ONE bounded incident
// bundle — snapshot, traces, goroutine dump, CPU profile — retrievable
// via /debug/incidents/{id}. Finally the plane and its SSE watchers
// shut down leak-free on drain.
func TestFleetHealthPlaneEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var backendURLs []string
	var backendServers []*Server
	hold := jobBarrier(2) // one sweep shard per backend, see jobBarrier
	for i := 0; i < 2; i++ {
		b := New(Config{
			Workers: 2, QueueDepth: 32, JobTimeout: time.Minute, CacheEntries: -1,
			ScrapeInterval: -1, // backends run no plane of their own
		})
		bts := httptest.NewServer(hold(b))
		t.Cleanup(bts.Close)
		backendURLs = append(backendURLs, bts.URL)
		backendServers = append(backendServers, b)
	}

	// jobs:p95<1ms cannot be met: the job-latency histogram's lowest
	// bucket is 10ms, so any completed job interpolates p95 >= ~9.5ms.
	// The windows are long enough that every job this test runs falls in
	// one continuous breach episode — which must trip exactly one incident.
	slos, err := fleetobs.ParseSLOs("jobs:p95<1ms")
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Config{
		Workers: 2, QueueDepth: 16, JobTimeout: time.Minute, CacheEntries: -1,
		Peers:              backendURLs,
		ScrapeInterval:     100 * time.Millisecond,
		SLOWindows:         []time.Duration{3 * time.Second, 9 * time.Second},
		SLOs:               slos,
		IncidentCPUProfile: 30 * time.Millisecond,
	})
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)

	// A quick local job seeds the coordinator's own metrics (and its
	// trace ring, so the incident bundle has traces to embed) and is by
	// itself enough to breach the SLO.
	doc, code := submit(t, ts, "compression", `{"apps":["milc"],"scale":"quick","seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, doc)
	}
	pollDone(t, ts, doc["id"].(string))

	// A sweep sharded across both backends gives every scrape target job
	// traffic to aggregate.
	sweep, code := postSweep(t, ts,
		`{"kind":"failure-probability","params":{"scheme":"ecp","window":16,"max_errors":8,"trials":150000},"seed_count":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: %d (%+v)", code, sweep)
	}

	// Aggregation: poll while the sweep runs (each shard's completion
	// only stays inside the display window for so long), accumulating
	// until snapshots have shown all three targets up, both peers with
	// windowed job quantiles, and a fleet-level exemplar.
	deadline := time.Now().Add(30 * time.Second)
	peerJobs := map[string]bool{}
	var sawSelf, sawExemplar bool
	for {
		snap := fetchFleetStatus(t, ts)
		if snap.Fleet.Backends != 3 {
			t.Fatalf("fleet tracks %d backends, want 3 (self + 2 peers)", snap.Fleet.Backends)
		}
		for _, bs := range snap.Backends {
			if bs.Self {
				if bs.Name != "self" {
					t.Fatalf("self target named %q, want self (peers configured)", bs.Name)
				}
				if bs.Up && bs.Goroutines > 0 {
					sawSelf = true
				}
				continue
			}
			if bs.Up && bs.Jobs.Count > 0 && bs.Jobs.P95ms > 0 && bs.Breaker == "closed" {
				peerJobs[bs.Name] = true
			}
		}
		if snap.Fleet.Jobs.ExemplarTraceID != "" && snap.Fleet.Jobs.ExemplarSeconds > 0 {
			sawExemplar = true
		}
		if sawSelf && sawExemplar && len(peerJobs) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregation never converged: self=%v exemplar=%v peersWithJobs=%d",
				sawSelf, sawExemplar, len(peerJobs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, u := range backendURLs {
		if !peerJobs[u] {
			t.Errorf("peer %s never reported windowed job stats", u)
		}
	}
	if done := pollSweep(t, ts, sweep.ID); done.State != StateDone {
		t.Fatalf("sweep finished %s: %s", done.State, done.Error)
	}

	// Breach: exactly one incident for the whole episode, asynchronously
	// completed with its profiles.
	var incID string
	for {
		list, total := fetchIncidents(t, ts)
		if total > 1 {
			t.Fatalf("breach tripped %d incidents, want exactly 1", total)
		}
		if total == 1 && len(list) == 1 && list[0].Complete {
			incID = list[0].ID
			if list[0].Objective != slos[0].Name {
				t.Fatalf("incident objective %q, want %q", list[0].Objective, slos[0].Name)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete incident captured (have %d, total %d)", len(list), total)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The bundle: snapshot at breach, burn-rate evidence, recent traces,
	// goroutine dump, CPU profile.
	resp, err := http.Get(ts.URL + "/debug/incidents/" + incID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/incidents/%s: %d", incID, resp.StatusCode)
	}
	var inc fleetobs.Incident
	if err := json.NewDecoder(resp.Body).Decode(&inc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if inc.ID != incID || !inc.Complete {
		t.Fatalf("bundle id=%s complete=%v, want %s complete", inc.ID, inc.Complete, incID)
	}
	if len(inc.Windows) != 2 {
		t.Fatalf("incident evidence spans %d windows, want 2", len(inc.Windows))
	}
	for _, w := range inc.Windows {
		if !w.Burning() {
			t.Errorf("window %s not burning at trip: value=%g target=%g samples=%g",
				w.Window, w.Value, w.Target, w.Samples)
		}
	}
	if inc.Snapshot.Fleet.Backends != 3 {
		t.Errorf("incident snapshot has %d backends, want 3", inc.Snapshot.Fleet.Backends)
	}
	var traces []json.RawMessage
	if err := json.Unmarshal(inc.Traces, &traces); err != nil || len(traces) == 0 {
		t.Errorf("incident embeds no traces (err=%v, raw=%.80s)", err, string(inc.Traces))
	}
	if !strings.Contains(inc.GoroutineProfile, "goroutine") {
		t.Errorf("goroutine profile missing or malformed: %.80q", inc.GoroutineProfile)
	}
	if len(inc.CPUProfile) == 0 && inc.CPUProfileError == "" {
		t.Error("incident has neither a CPU profile nor a capture error")
	}
	for _, ev := range inc.Timeline {
		if ev.Type == "snapshot" {
			t.Error("incident timeline embeds bulky snapshot events")
			break
		}
	}

	// Exactly-once: a dozen more scrapes must not trip a second incident
	// while the episode is still burning.
	time.Sleep(12 * 100 * time.Millisecond)
	if _, total := fetchIncidents(t, ts); total != 1 {
		t.Fatalf("incident count drifted to %d, want it pinned at 1", total)
	}

	// Drain: an open ?watch=1 stream must be released by shutdown, the
	// scrape loop must stop, and no plane goroutines may linger.
	watchResp, err := http.Get(ts.URL + "/v1/fleet/status?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	if ct := watchResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch Content-Type %q, want text/event-stream", ct)
	}
	sawSnapshotFrame := make(chan bool, 1)
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		sc := bufio.NewScanner(watchResp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		seen := false
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: snapshot") && !seen {
				seen = true
				sawSnapshotFrame <- true
			}
		}
	}()
	select {
	case <-sawSnapshotFrame:
	case <-time.After(10 * time.Second):
		t.Fatal("watch stream produced no snapshot frame")
	}
	if n := coord.fleet.Timeline().Subscribers(); n < 1 {
		t.Fatalf("watch stream open but timeline has %d subscribers", n)
	}

	for _, s := range append(backendServers, coord) {
		if err := shutdownServer(s); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-watchDone: // drain closed the stream server-side
	case <-time.After(10 * time.Second):
		t.Fatal("watch stream not closed by drain")
	}
	watchResp.Body.Close()

	// The subscription is released on the stream's exit path, and the
	// scrape loop plus any profile capture have unwound: goroutines are
	// back near the pre-test baseline.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		subs := coord.fleet.Timeline().Subscribers()
		n := runtime.NumGoroutine()
		if subs == 0 && n <= baseline+10 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("leak after drain: %d timeline subscribers, %d goroutines (baseline %d)",
				subs, n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The incident ring survives shutdown within the process: the bundle
	// is still addressable through the plane (the HTTP listener is gone).
	if _, ok := coord.fleet.Incident(incID); !ok {
		t.Errorf("incident %s lost after drain", incID)
	}
}

// fetchBackend GETs /v1/backends and reports the named backend's health.
func fetchBackend(t *testing.T, ts *httptest.Server, name string) (healthy, found bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Backends []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, b := range doc.Backends {
		if b.Name == name {
			return b.Healthy, true
		}
	}
	return false, false
}

// TestDrainingPeerStaysUnhealthy pins the single health signal: a peer
// that is draining answers /healthz with 503 but still serves /metrics
// (pcmd drains its job service before its HTTP listener). The health loop
// must sideline it, and the fleet plane's successful scrapes of the same
// peer must not readmit it.
func TestDrainingPeerStaysUnhealthy(t *testing.T) {
	var scrapes atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			writeError(w, http.StatusServiceUnavailable, "draining")
		case "/metrics":
			scrapes.Add(1)
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			io.WriteString(w, "# TYPE pcmd_queue_depth gauge\npcmd_queue_depth 0\n"+
				"# TYPE pcmd_goroutines gauge\npcmd_goroutines 12\n")
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(peer.Close)

	const scrapeEvery = 20 * time.Millisecond
	coord := New(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: time.Minute,
		Peers:          []string{peer.URL},
		HealthInterval: 50 * time.Millisecond,
		ScrapeInterval: scrapeEvery,
	})
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = shutdownServer(coord) })

	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy, found := fetchBackend(t, ts, peer.URL)
		if !found {
			t.Fatalf("/v1/backends does not list peer %s", peer.URL)
		}
		if !healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health loop never marked the draining peer unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Poll across well over ten scrape intervals: every read must still
	// show the peer sidelined, however many /metrics scrapes succeed.
	before := scrapes.Load()
	end := time.Now().Add(15 * scrapeEvery)
	polls := 0
	for time.Now().Before(end) || scrapes.Load()-before < 10 {
		if healthy, _ := fetchBackend(t, ts, peer.URL); healthy {
			t.Fatalf("poll %d: draining peer readmitted after %d successful scrapes",
				polls, scrapes.Load()-before)
		}
		polls++
		if time.Now().After(deadline) {
			t.Fatalf("only %d scrapes of the peer in the polling window, want >= 10", scrapes.Load()-before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
