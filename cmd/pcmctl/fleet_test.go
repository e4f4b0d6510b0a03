package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pcmcomp/internal/fleetobs"
)

// fixedSnapshot is a coordinator's view of itself and two healthy peers,
// one of them serving two tenants and the other one of the same tenants.
func fixedSnapshot() *fleetobs.FleetSnapshot {
	at := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	return &fleetobs.FleetSnapshot{
		Time:           at,
		Window:         "1m0s",
		ScrapeInterval: "250ms",
		Backends: []fleetobs.BackendSnapshot{
			{Name: "self", Self: true, Up: true, LastScrape: at, Goroutines: 40},
			{
				Name: "http://127.0.0.1:18181", Up: true, LastScrape: at, Breaker: "closed",
				Queued: 1, Running: 2, Goroutines: 31,
				Jobs: fleetobs.LatencyStats{RatePerSec: 0.5, P95ms: 120.4},
				HTTP: fleetobs.LatencyStats{RatePerSec: 4, P99ms: 2.5},
				Tenants: map[string]fleetobs.TenantStats{
					"acme":   {SubmitPerSec: 1.5, QueueDepth: 2},
					"globex": {SubmitPerSec: 0.25, ThrottlePerSec: 0.5},
				},
			},
			{
				Name: "http://127.0.0.1:18182", Up: true, LastScrape: at, Breaker: "closed",
				Running: 1, Goroutines: 29,
				Jobs:    fleetobs.LatencyStats{RatePerSec: 0.25, P95ms: 98.7},
				HTTP:    fleetobs.LatencyStats{RatePerSec: 3, P99ms: 1.75},
				Tenants: map[string]fleetobs.TenantStats{"acme": {SubmitPerSec: 1, QueueDepth: 1}},
			},
		},
		Fleet: fleetobs.FleetTotals{
			Backends: 3, Up: 3, Queued: 1, Running: 3,
			Jobs: fleetobs.LatencyStats{
				RatePerSec: 0.75, P95ms: 118.2,
				ExemplarTraceID: "4bf92f3577b34da6", ExemplarSeconds: 1.5,
			},
			HTTP:         fleetobs.LatencyStats{RatePerSec: 7, P99ms: 2.4},
			JobErrorRate: 0.125,
		},
	}
}

// TestRenderSnapshot pins the `pcmctl status` rendering the fleet smoke
// reads: the totals line, the exemplar line, one row per backend, and
// the tenant rows summed across backends.
func TestRenderSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := renderSnapshot(&buf, fixedSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fleet 2024-03-01T12:00:00Z  window 1m0s  scrape 250ms\n",
		"backends 3/3 up, 0 breakers open  queued 1 running 3  jobs 0.75/s (err 12.50%)  http 7.00/s (err 0.00%)\n",
		"slowest recent job: trace 4bf92f3577b34da6 (1.500s)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}

	rows := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	wantRows := map[string]string{
		"self":                   "self (self) up - 0 0 0.00 0.0ms 0.00 0.0ms 40",
		"http://127.0.0.1:18181": "http://127.0.0.1:18181 up closed 1 2 0.50 120.4ms 4.00 2.5ms 31",
		"http://127.0.0.1:18182": "http://127.0.0.1:18182 up closed 0 1 0.25 98.7ms 3.00 1.8ms 29",
		"TENANT":                 "TENANT SUBMIT/S THROTTLE/S QUEUE",
		"acme":                   "acme 2.50 0.00 3",
		"globex":                 "globex 0.25 0.50 0",
	}
	for key, want := range wantRows {
		if got := strings.Join(rows[key], " "); got != want {
			t.Errorf("row %s = %q, want %q", key, got, want)
		}
	}
	// The smoke's per-peer check: JOBS/S and JOB P95 are non-zero.
	for _, peer := range []string{"http://127.0.0.1:18181", "http://127.0.0.1:18182"} {
		if f := rows[peer]; len(f) < 7 || f[5] == "0.00" || f[6] == "0.0ms" {
			t.Errorf("peer row %v has no windowed job stats", f)
		}
	}
	if strings.Index(out, "TENANT") < strings.Index(out, "BACKEND") {
		t.Errorf("tenant table precedes the backend table:\n%s", out)
	}
	assertNoSLOText(t, out)
}

func TestSnapshotLine(t *testing.T) {
	got := snapshotLine(fixedSnapshot())
	want := "2024-03-01T12:00:00Z  up 3/3  queued 1  running 3  jobs 0.75/s p95 118.2ms  http 7.00/s p99 2.4ms"
	if got != want {
		t.Fatalf("snapshotLine =\n%q\nwant\n%q", got, want)
	}
	data, err := json.Marshal(fixedSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	assertNoSLOText(t, got, string(data))
}

// assertNoSLOText fails when any rendering still speaks of objectives,
// breaches or incidents.
func assertNoSLOText(t *testing.T, outs ...string) {
	t.Helper()
	for _, out := range outs {
		for _, gone := range []string{"SLO", "slo-", `"slos"`, "BREACH", "breach", "incident", "INCIDENT"} {
			if strings.Contains(out, gone) {
				t.Errorf("output still mentions %q:\n%s", gone, out)
			}
		}
	}
}
