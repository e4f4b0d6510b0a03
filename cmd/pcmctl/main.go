// Command pcmctl drives a pcmd fleet from the terminal. Every subcommand
// talks to one pcmd named by -server; sweeps are sharded by that pcmd's
// coordinator (POST /v1/sweeps), so pcmctl itself runs no simulation.
//
// Usage:
//
//	pcmctl sweep -server http://coord:8080 \
//	       -kind lifetime -params '{"app":"milc","scale":"quick"}' \
//	       -seeds 8 [-seed-start 1] \
//	       [-schemes 'baseline;comp=bdi+fpc,ecc=ecp6,enc=coset4,wl=startgap'] \
//	       [-trace file.pcmt | -trace sha256:...] [-quiet] [-v]
//	pcmctl jobs -server http://b1:8080 [-state running] [-limit 100] [-offset 0]
//	pcmctl events -server http://b1:8080 -id j000001-abcd1234 [-follow] [-api-key KEY]
//	pcmctl cancel -server http://b1:8080 -id j000001-abcd1234
//	pcmctl trace upload -server http://b1:8080 [-api-key KEY] file.pcmt
//	pcmctl trace ls -server http://b1:8080
//	pcmctl trace rm -server http://b1:8080 sha256:...
//	pcmctl trace -server http://b1:8080 [-id <trace-id>]
//	pcmctl status -server http://coord:8080 [-json] [-watch]
//	pcmctl top -server http://coord:8080
//	pcmctl incidents -server http://coord:8080 [get inc-000001]
//	pcmctl -version
//
// trace upload/ls/rm manage the server's content-addressed store of
// uploaded write-back traces (POST /v1/traces): upload prints the
// trace's sha256: digest, which `sweep -trace` and the lifetime and
// failure-probability job params accept in place of a synthetic workload.
// sweep -trace with a file path uploads it to -server first and
// substitutes the digest; a sha256: digest passes through unchanged.
//
// events renders a job's (or sweep's — IDs starting with "s") flight
// recorder. Without -follow it fetches the retained timeline once; with
// -follow it streams over SSE, replaying history and then following live
// events until the job is terminal, reconnecting with Last-Event-ID if
// the connection drops. -api-key authenticates as a tenant against a
// multi-tenant pcmd.
//
// sweep prints shard progress to stderr and the finished sweep document
// (the merged result under "result", plus the trace ID to feed `pcmctl
// trace`) as JSON on stdout. The pcmd's -peers, -sweep-retries,
// -hedge-after and -job-timeout decide where and how shards run; a
// peerless pcmd runs them in-process with the same merged result.
//
// trace renders a completed trace from the server's /debug/traces ring as
// an ASCII span tree — without -id it lists the retained traces.
//
// status renders the coordinator's fleet health snapshot (GET
// /v1/fleet/status): per-backend health and breaker state, windowed
// latency quantiles, SLO burn rates, and incident counts. top is the
// live version — the terminal redraws on every scrape the ?watch=1 SSE
// stream publishes. incidents lists the captured SLO-breach bundles;
// `incidents get <id>` prints one full bundle (snapshot, traces,
// goroutine dump, base64 CPU profile) as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/obs"
	"pcmcomp/internal/pcmclient"
	"pcmcomp/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pcmctl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: pcmctl <sweep|jobs|cancel|trace> [flags] (see -h of each subcommand)")
	}
	switch args[0] {
	case "sweep":
		return runSweep(ctx, args[1:], stdout, stderr)
	case "jobs":
		return runJobs(ctx, args[1:], stdout)
	case "events":
		return runEvents(ctx, args[1:], stdout, stderr)
	case "cancel":
		return runCancel(ctx, args[1:], stdout)
	case "trace":
		return runTrace(ctx, args[1:], stdout)
	case "status":
		return runStatus(ctx, args[1:], stdout, stderr)
	case "top":
		return runTop(ctx, args[1:], stdout, stderr)
	case "incidents":
		return runIncidents(ctx, args[1:], stdout, stderr)
	case "version", "-version", "--version":
		fmt.Fprintln(stdout, "pcmctl", version.String())
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want sweep, jobs, events, cancel, trace, status, top, or incidents)", args[0])
	}
}

// splitSchemes parses a semicolon-separated scheme-spec list (specs
// themselves contain commas, so "," cannot be the separator).
func splitSchemes(s string) []string {
	var out []string
	for _, sc := range strings.Split(s, ";") {
		if sc = strings.TrimSpace(sc); sc != "" {
			out = append(out, sc)
		}
	}
	return out
}

// runSweep submits a sweep to a pcmd (POST /v1/sweeps) and polls it until
// terminal. The server owns sharding, retries, and hedging; this side
// validates the request, uploads a -trace file, and watches progress.
func runSweep(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcmctl sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	kind := fs.String("kind", "", "job kind: lifetime, failure-probability, or compression")
	paramsJSON := fs.String("params", "{}", "base job parameters as JSON (seed is set per shard)")
	seedStart := fs.Uint64("seed-start", 1, "first seed")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds")
	schemes := fs.String("schemes", "", "semicolon-separated scheme specs for a lifetime scheme matrix (specs contain commas); one shard per scheme x seed")
	traceArg := fs.String("trace", "", "trace for trace-driven shards: a sha256: digest, or a trace file uploaded to -server first")
	verbose := fs.Bool("v", false, "log the client's retry/backoff machinery to stderr")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" {
		return fmt.Errorf("-server is required")
	}
	var params map[string]any
	if err := json.Unmarshal([]byte(*paramsJSON), &params); err != nil {
		return fmt.Errorf("-params is not a JSON object: %w", err)
	}
	req := cluster.SweepRequest{
		Kind:      *kind,
		Params:    params,
		SeedStart: *seedStart,
		SeedCount: *seeds,
		Schemes:   splitSchemes(*schemes),
	}
	// Bad flags fail here, before any network call.
	if err := req.Normalize(); err != nil {
		return err
	}

	c := pcmclient.New(*serverURL)
	if *verbose {
		logger, err := obs.NewLogger(stderr, "text", nil)
		if err != nil {
			return err
		}
		c.Logger = logger
	}
	if *traceArg != "" {
		digest := *traceArg
		if !strings.HasPrefix(digest, "sha256:") {
			data, err := os.ReadFile(digest)
			if err != nil {
				return err
			}
			meta, _, err := c.UploadTrace(ctx, data)
			if err != nil {
				return fmt.Errorf("upload trace: %w", err)
			}
			digest = meta.Digest
		}
		req.Params["trace"] = digest
	}

	sw, err := c.SubmitSweep(ctx, req)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(stderr, "sweep %s accepted (trace %s)\n", sw.ID, sw.TraceID)
	}
	onProgress := func(done, total int) {
		if !*quiet && total > 0 {
			fmt.Fprintf(stderr, "\rshards %d/%d", done, total)
		}
	}
	sw, err = c.WaitSweep(ctx, sw.ID, onProgress)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintln(stderr)
	}
	if sw.State != pcmclient.StateDone {
		return fmt.Errorf("sweep %s %s: %s", sw.ID, sw.State, sw.Error)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(sw)
}

func runJobs(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pcmctl jobs", flag.ContinueOnError)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	state := fs.String("state", "", "filter by state (queued, running, done, failed, canceled)")
	limit := fs.Int("limit", 100, "page size")
	offset := fs.Int("offset", 0, "page offset")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" {
		return fmt.Errorf("-server is required")
	}
	c := pcmclient.New(*serverURL)
	page, err := c.List(ctx, pcmclient.ListOptions{State: *state, Limit: *limit, Offset: *offset})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(page)
}

// runEvents renders a flight-recorder timeline: one JSON-lines event per
// row (time, type, msg, sorted fields). IDs starting with "s" address
// sweeps; everything else addresses jobs. -follow streams over SSE and
// exits when the job or sweep reaches a terminal state — non-zero when
// that state is failed or canceled.
func runEvents(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcmctl events", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	id := fs.String("id", "", "job or sweep ID (required; sweep IDs start with \"s\")")
	follow := fs.Bool("follow", false, "stream live events over SSE until the job is terminal")
	apiKey := fs.String("api-key", "", "tenant API key (X-Api-Key header)")
	verbose := fs.Bool("v", false, "log the client's reconnect machinery to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" || *id == "" {
		return fmt.Errorf("-server and -id are required")
	}
	c := pcmclient.New(*serverURL)
	c.APIKey = *apiKey
	if *verbose {
		logger, err := obs.NewLogger(stderr, "text", nil)
		if err != nil {
			return err
		}
		c.Logger = logger
	}
	isSweep := strings.HasPrefix(*id, "s")

	printEvent := func(ev obs.Event) {
		fmt.Fprintf(stdout, "%s  %-10s %s", ev.Time.Format(time.RFC3339Nano), ev.Type, ev.Msg)
		keys := make([]string, 0, len(ev.Fields))
		for k := range ev.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, " %s=%s", k, ev.Fields[k])
		}
		fmt.Fprintln(stdout)
	}

	if !*follow {
		var doc *pcmclient.EventsDoc
		var err error
		if isSweep {
			doc, err = c.SweepEvents(ctx, *id)
		} else {
			doc, err = c.JobEvents(ctx, *id)
		}
		if err != nil {
			return err
		}
		if doc.Dropped > 0 {
			fmt.Fprintf(stderr, "(%d earlier events dropped by the ring)\n", doc.Dropped)
		}
		for _, ev := range doc.Events {
			printEvent(ev)
		}
		return nil
	}

	onEvent := func(ev pcmclient.TimelineEvent) { printEvent(ev.Event) }
	if isSweep {
		sw, err := c.WatchSweep(ctx, *id, onEvent)
		if err != nil {
			return err
		}
		if sw.State != pcmclient.StateDone {
			return fmt.Errorf("sweep %s %s: %s", sw.ID, sw.State, sw.Error)
		}
		fmt.Fprintf(stderr, "sweep %s done\n", sw.ID)
		return nil
	}
	j, err := c.Watch(ctx, *id, onEvent)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "job %s %s\n", j.ID, j.State)
	return nil
}

// runTrace dispatches the data-trace subcommands (upload, ls, rm) and
// falls back to the observability-trace renderer for everything else.
func runTrace(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "upload":
			return runTraceUpload(ctx, args[1:], stdout)
		case "ls":
			return runTraceList(ctx, args[1:], stdout)
		case "rm":
			return runTraceRemove(ctx, args[1:], stdout)
		}
	}
	return runObsTrace(ctx, args, stdout)
}

// runTraceUpload implements `pcmctl trace upload -server URL file`: post a
// trace file (tracegen binary, gzip, or NDJSON) to POST /v1/traces and
// print the stored document. Re-uploading a known trace is a no-op that
// still prints the digest.
func runTraceUpload(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pcmctl trace upload", flag.ContinueOnError)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	apiKey := fs.String("api-key", "", "tenant API key (X-Api-Key header)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: pcmctl trace upload -server URL [-api-key KEY] <trace-file>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	c := pcmclient.New(*serverURL)
	c.APIKey = *apiKey
	meta, stored, err := c.UploadTrace(ctx, data)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"trace": meta, "stored": stored})
}

// runTraceList implements `pcmctl trace ls -server URL`.
func runTraceList(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pcmctl trace ls", flag.ContinueOnError)
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
	traces, err := c.ListTraces(ctx)
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		fmt.Fprintln(stdout, "no traces stored")
		return nil
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DIGEST\tBYTES\tEVENTS\tLINES\tCREATED")
	for _, t := range traces {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\n",
			t.Digest, t.Bytes, t.Events, t.Lines, t.Created.Format(time.RFC3339))
	}
	return tw.Flush()
}

// runTraceRemove implements `pcmctl trace rm -server URL <digest>`.
func runTraceRemove(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pcmctl trace rm", flag.ContinueOnError)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	apiKey := fs.String("api-key", "", "tenant API key (X-Api-Key header)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: pcmctl trace rm -server URL [-api-key KEY] <digest>")
	}
	c := pcmclient.New(*serverURL)
	c.APIKey = *apiKey
	if err := c.DeleteTrace(ctx, fs.Arg(0)); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "deleted", fs.Arg(0))
	return nil
}

func runObsTrace(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pcmctl trace", flag.ContinueOnError)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	id := fs.String("id", "", "trace ID to render (empty: list retained traces)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" {
		return fmt.Errorf("-server is required")
	}
	c := pcmclient.New(*serverURL)
	if *id == "" {
		traces, err := c.Traces(ctx)
		if err != nil {
			return err
		}
		if len(traces) == 0 {
			fmt.Fprintln(stdout, "no traces retained")
			return nil
		}
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "TRACE\tROOT\tSPANS\tSTART\tDURATION")
		for _, t := range traces {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.1fms\n",
				t.TraceID, t.Root, t.Spans, t.Start.Format(time.RFC3339), t.DurationMS)
		}
		return tw.Flush()
	}
	tree, err := c.Trace(ctx, *id)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "trace", *id)
	obs.Walk(tree, func(n *obs.SpanNode, depth int) {
		indent := strings.Repeat("  ", depth+1)
		fmt.Fprintf(stdout, "%s%s  %s", indent, n.Name, n.Duration().Round(time.Microsecond))
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(stdout, " %s=%s", k, n.Attrs[k])
			}
		}
		if n.Error != "" {
			fmt.Fprintf(stdout, " error=%q", n.Error)
		}
		fmt.Fprintln(stdout)
	})
	return nil
}

func runCancel(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pcmctl cancel", flag.ContinueOnError)
	serverURL := fs.String("server", "", "pcmd base URL (required)")
	id := fs.String("id", "", "job ID to cancel (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" || *id == "" {
		return fmt.Errorf("-server and -id are required")
	}
	c := pcmclient.New(*serverURL)
	j, err := c.Cancel(ctx, *id)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}
