// Fleet-level benchmark: sweeps/sec through a real in-process pcmd. Where
// the microbenchmarks isolate the simulation kernels, FleetSweeps measures
// the whole service path a production sweep takes — HTTP mux and
// middleware, sweep validation, the cluster coordinator's shard dispatch,
// the loopback backend running server.ExecuteLocal (decode, normalize, the
// Monte-Carlo kernel, marshal), and the deterministic seed-order merge —
// so a regression anywhere in that stack moves a number CI gates on, not
// just the kernels underneath it.
package benchmarks

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pcmcomp/internal/server"
)

// fleetSweepBody builds one benchmark sweep request: a Fig 9
// failure-probability curve sharded over four seeds. seedStart varies per
// iteration so every sweep is distinct work — the result cache is disabled
// too, but unique seeds keep the measurement honest even if that default
// changes.
func fleetSweepBody(seedStart uint64) string {
	return fmt.Sprintf(`{"kind":"failure-probability",`+
		`"params":{"scheme":"ecp","window":32,"max_errors":12,"trials":1000},`+
		`"seed_start":%d,"seed_count":4}`, seedStart)
}

// FleetSweeps measures one distributed sweep end to end on a peerless
// pcmd: POST /v1/sweeps, the coordinator fanning four seed shards out to
// the in-process loopback backend (server.ExecuteLocal), and following
// the sweep's event stream until the merged result lands. ns/op is the
// service-level latency of a whole sweep; its reciprocal is the
// sweeps/sec the fleet benchmark gates in BENCH_pipeline.json.
func FleetSweeps(b *testing.B) {
	srv := server.New(server.Config{
		QueueDepth:   64,
		CacheEntries: -1, // disable the result cache: measure computation, not replay
		JobTimeout:   time.Minute,
	})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Seed ranges never overlap across iterations (4 seeds per sweep).
		id := submitFleetSweep(b, srv, fleetSweepBody(1+uint64(i)*4))
		awaitFleetSweep(b, srv, id)
	}
}

// submitFleetSweep POSTs one sweep through the server's real handler chain
// and returns the sweep id.
func submitFleetSweep(b *testing.B, srv *server.Server, body string) string {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		b.Fatalf("submit sweep: %d %s", rec.Code, rec.Body.String())
	}
	var doc server.SweepStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		b.Fatal(err)
	}
	return doc.ID
}

// awaitFleetSweep follows the sweep's event stream (GET
// /v1/sweeps/{id}/events as SSE) until its terminal event, the one wait
// path every client uses. The handler writes into a recorder, so the
// request returns once the stream ends; a stream that ends without a
// terminal event (a dropped-events notice) is resumed after its last
// frame.
func awaitFleetSweep(b *testing.B, srv *server.Server, id string) {
	b.Helper()
	last := ""
	for resumes := 0; resumes < 100; resumes++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+id+"/events", nil)
		req.Header.Set("Accept", "text/event-stream")
		if last != "" {
			req.Header.Set("Last-Event-ID", last)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("follow sweep %s: %d %s", id, rec.Code, rec.Body.String())
		}
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				last = v
			}
			switch line {
			case "event: done":
				return
			case "event: failed", "event: canceled":
				b.Fatalf("sweep %s finished %s", id, strings.TrimPrefix(line, "event: "))
			}
		}
	}
	b.Fatalf("sweep %s: its event stream never reached a terminal event", id)
}
