package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"pcmcomp/internal/fleetobs"
	"pcmcomp/internal/pcmclient"
)

// runStatus implements `pcmctl status -server URL [-json] [-watch]`: one
// fleet health snapshot rendered as tables (or raw JSON), or — with
// -watch — a line per snapshot as the stream publishes them.
func runStatus(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcmctl status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	asJSON := fs.Bool("json", false, "print the raw snapshot JSON instead of tables")
	watch := fs.Bool("watch", false, "follow the snapshot stream, one summary line per scrape")
	apiKey := fs.String("api-key", "", "tenant API key (X-Api-Key header)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" {
		return fmt.Errorf("-server is required")
	}
	c := pcmclient.New(*serverURL)
	c.APIKey = *apiKey

	if *watch {
		return c.WatchFleet(ctx, func(snap *fleetobs.FleetSnapshot) {
			if *asJSON {
				data, _ := json.Marshal(snap)
				fmt.Fprintln(stdout, string(data))
				return
			}
			fmt.Fprintln(stdout, snapshotLine(snap))
		}, nil)
	}

	snap, err := c.FleetStatus(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	return renderSnapshot(stdout, snap)
}

// runTop implements `pcmctl top -server URL`: a live full-screen view of
// the fleet, redrawn on every snapshot the watch stream delivers, until
// interrupted.
func runTop(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcmctl top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	apiKey := fs.String("api-key", "", "tenant API key (X-Api-Key header)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" {
		return fmt.Errorf("-server is required")
	}
	c := pcmclient.New(*serverURL)
	c.APIKey = *apiKey
	err := c.WatchFleet(ctx, func(snap *fleetobs.FleetSnapshot) {
		fmt.Fprint(stdout, "\033[H\033[2J") // cursor home + clear screen
		_ = renderSnapshot(stdout, snap)
	}, nil)
	if ctx.Err() != nil {
		fmt.Fprintln(stderr)
		return nil // interrupted: a clean exit, not an error
	}
	return err
}

// snapshotLine is the one-line -watch summary of a snapshot.
func snapshotLine(snap *fleetobs.FleetSnapshot) string {
	return fmt.Sprintf("%s  up %d/%d  queued %.0f  running %.0f  jobs %.2f/s p95 %.1fms  http %.2f/s p99 %.1fms",
		snap.Time.Format(time.RFC3339), snap.Fleet.Up, snap.Fleet.Backends,
		snap.Fleet.Queued, snap.Fleet.Running,
		snap.Fleet.Jobs.RatePerSec, snap.Fleet.Jobs.P95ms,
		snap.Fleet.HTTP.RatePerSec, snap.Fleet.HTTP.P99ms)
}

// renderSnapshot draws the full fleet view: totals, a backend table, and
// per-tenant rows when any backend reports tenant activity.
func renderSnapshot(w io.Writer, snap *fleetobs.FleetSnapshot) error {
	fmt.Fprintf(w, "fleet %s  window %s  scrape %s\n",
		snap.Time.Format(time.RFC3339), snap.Window, snap.ScrapeInterval)
	fmt.Fprintf(w, "backends %d/%d up, %d breakers open  queued %.0f running %.0f  jobs %.2f/s (err %.2f%%)  http %.2f/s (err %.2f%%)\n",
		snap.Fleet.Up, snap.Fleet.Backends, snap.Fleet.BreakersOpen,
		snap.Fleet.Queued, snap.Fleet.Running,
		snap.Fleet.Jobs.RatePerSec, snap.Fleet.JobErrorRate*100,
		snap.Fleet.HTTP.RatePerSec, snap.Fleet.HTTPErrorRate*100)
	if ex := snap.Fleet.Jobs.ExemplarTraceID; ex != "" {
		fmt.Fprintf(w, "slowest recent job: trace %s (%.3fs)\n", ex, snap.Fleet.Jobs.ExemplarSeconds)
	}
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "BACKEND\tUP\tBREAKER\tQUEUED\tRUNNING\tJOBS/S\tJOB P95\tHTTP/S\tHTTP P99\tGOROUTINES")
	for _, b := range snap.Backends {
		name := b.Name
		if b.Self {
			name += " (self)"
		}
		up := "up"
		if !b.Up {
			up = "DOWN"
			if b.ScrapeError != "" {
				up = "DOWN: " + b.ScrapeError
			}
		}
		breaker := b.Breaker
		if breaker == "" {
			breaker = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%.0f\t%.2f\t%.1fms\t%.2f\t%.1fms\t%.0f\n",
			name, up, breaker, b.Queued, b.Running,
			b.Jobs.RatePerSec, b.Jobs.P95ms, b.HTTP.RatePerSec, b.HTTP.P99ms, b.Goroutines)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Per-tenant rows only when any backend reports tenant activity.
	tenants := map[string]fleetobs.TenantStats{}
	for _, b := range snap.Backends {
		for name, ts := range b.Tenants {
			agg := tenants[name]
			agg.SubmitPerSec += ts.SubmitPerSec
			agg.ThrottlePerSec += ts.ThrottlePerSec
			agg.QueueDepth += ts.QueueDepth
			tenants[name] = agg
		}
	}
	if len(tenants) > 0 {
		names := make([]string, 0, len(tenants))
		for name := range tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "TENANT\tSUBMIT/S\tTHROTTLE/S\tQUEUE")
		for _, name := range names {
			ts := tenants[name]
			fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.0f\n", name, ts.SubmitPerSec, ts.ThrottlePerSec, ts.QueueDepth)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
