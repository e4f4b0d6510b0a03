package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pcmcomp/internal/fleetobs"
	"pcmcomp/internal/tenant"
)

// initFleet wires the fleet health plane: a self-scrape target reading
// this server's own metrics in-process, plus one HTTP target per peer.
// The plane only observes: the coordinator's /healthz loop alone drives
// the circuit breakers, and the plane's snapshot joins their state back
// in, so GET /v1/fleet/status shows both sides of the same fleet.
func (s *Server) initFleet() {
	if s.cfg.ScrapeInterval < 0 {
		return // plane disabled
	}
	// In peerless mode the self target takes the loopback backend's name,
	// so the breaker join lands on the one backend that exists; with peers
	// the coordinator itself is not a dispatch target and keeps "self".
	selfName := "self"
	if len(s.cfg.Peers) == 0 {
		selfName = "local"
	}
	targets := []fleetobs.Target{{
		Name: selfName,
		Self: true,
		Fetch: func(context.Context) ([]byte, error) {
			var buf bytes.Buffer
			s.renderMetrics(&buf)
			return buf.Bytes(), nil
		},
	}}
	// One plain client for all peer scrapes; the plane's fetch context
	// carries the timeout.
	client := &http.Client{}
	for _, peer := range s.cfg.Peers {
		targets = append(targets, fleetobs.Target{
			Name:  peer,
			Fetch: metricsFetcher(client, peer),
		})
	}
	s.fleet = fleetobs.New(fleetobs.Config{
		Interval:   s.cfg.ScrapeInterval,
		Windows:    s.cfg.SLOWindows,
		Objectives: s.cfg.SLOs,
		Targets:    targets,
		Cluster: func() []fleetobs.BackendHealth {
			statuses := s.coord.Backends()
			out := make([]fleetobs.BackendHealth, len(statuses))
			for i, b := range statuses {
				out[i] = fleetobs.BackendHealth{
					Name:             b.Name,
					Healthy:          b.Healthy,
					ConsecutiveFails: b.ConsecutiveFails,
					Inflight:         b.Inflight,
				}
			}
			return out
		},
		CollectTraces: func(n int) json.RawMessage {
			data, err := json.Marshal(s.ring.RecentTraces(n))
			if err != nil {
				return nil
			}
			return data
		},
		CPUProfileDuration: s.cfg.IncidentCPUProfile,
		Logger:             s.log,
	})
	s.fleet.Start()
}

// metricsFetcher builds a Target fetch that GETs one peer's /metrics.
func metricsFetcher(client *http.Client, base string) func(ctx context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
		}
		// A metrics body is small (tens of KiB); bound it anyway so a
		// misbehaving peer cannot balloon the scrape loop.
		return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	}
}

// handleFleetStatus implements GET /v1/fleet/status: the rolling fleet
// snapshot as JSON, or — with ?watch=1 or Accept: text/event-stream —
// the plane's flight recorder streamed over SSE. Every scrape appends a
// "snapshot" event whose msg is the compact snapshot JSON, so a watcher
// re-renders on each frame; transition events (target_down, slo_breach,
// incident...) interleave.
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, "fleet health plane is disabled (-scrape-interval < 0)")
		return
	}
	if r.URL.Query().Get("watch") == "1" || wantsSSE(r) {
		s.streamEvents(w, r, s.fleet.Timeline())
		return
	}
	writeJSON(w, http.StatusOK, s.fleet.Snapshot())
}

// handleIncidents implements GET /debug/incidents: the ring's summaries,
// newest first, plus the lifetime total (evicted bundles count, their
// bodies are gone).
func (s *Server) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, "fleet health plane is disabled (-scrape-interval < 0)")
		return
	}
	list := s.fleet.Incidents()
	if list == nil {
		list = []fleetobs.IncidentSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"incidents": list,
		"total":     s.fleet.Stats().IncidentsTotal,
	})
}

// handleIncident implements GET /debug/incidents/{id}: one full bundle —
// fleet snapshot at breach, recent traces, goroutine dump, CPU profile
// (base64 in JSON), and the plane's timeline slice.
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, "fleet health plane is disabled (-scrape-interval < 0)")
		return
	}
	inc, ok := s.fleet.Incident(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such incident (evicted or never captured)")
		return
	}
	writeJSON(w, http.StatusOK, inc)
}

// writeFleetMetrics renders the plane's own accounting into /metrics.
func writeFleetMetrics(w io.Writer, st fleetobs.Stats) {
	fmt.Fprintf(w, "# TYPE pcmd_fleetobs_scrapes_total counter\n")
	fmt.Fprintf(w, "pcmd_fleetobs_scrapes_total{outcome=\"ok\"} %d\n", st.ScrapesOK)
	fmt.Fprintf(w, "pcmd_fleetobs_scrapes_total{outcome=\"failed\"} %d\n", st.ScrapesFailed)
	fmt.Fprintf(w, "# TYPE pcmd_fleetobs_incidents_total counter\npcmd_fleetobs_incidents_total %d\n", st.IncidentsTotal)
	fmt.Fprintf(w, "# TYPE pcmd_fleetobs_incidents_stored gauge\npcmd_fleetobs_incidents_stored %d\n", st.IncidentsStored)
	fmt.Fprintf(w, "# TYPE pcmd_fleetobs_slo_breaching gauge\npcmd_fleetobs_slo_breaching %d\n", st.Breaching)
}

// logSampler rate-limits per-route access logging: one tenant.Bucket per
// route, refilled at qps, burst max(qps, 1). The middleware consults it
// only for non-error responses — errors always log. A nil sampler allows
// everything (the -log-sample 0 default).
type logSampler struct {
	mu      sync.Mutex
	qps     float64
	buckets map[string]*tenant.Bucket
}

func newLogSampler(qps float64) *logSampler {
	if qps <= 0 {
		return nil
	}
	return &logSampler{qps: qps, buckets: make(map[string]*tenant.Bucket)}
}

// allow takes one token from the route's bucket, reporting whether the
// access line should be written.
func (ls *logSampler) allow(route string, now time.Time) bool {
	if ls == nil {
		return true
	}
	ls.mu.Lock()
	b := ls.buckets[route]
	if b == nil {
		b = tenant.NewBucket(ls.qps, max(ls.qps, 1))
		ls.buckets[route] = b
	}
	ls.mu.Unlock()
	_, ok := b.Take(now, 1)
	return ok
}
