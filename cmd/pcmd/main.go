// Command pcmd serves the repository's simulations over HTTP: lifetime
// runs, Fig 9 Monte-Carlo failure-probability curves, and compression
// sweeps are submitted as asynchronous jobs, executed on a bounded worker
// pool, and memoized in a content-addressed result cache. See
// internal/server for the API surface and README.md for curl examples.
//
// Usage:
//
//	pcmd [-addr :8080] [-workers N] [-queue 64] [-cache 256]
//	     [-job-timeout 15m] [-job-ttl 1h] [-max-jobs 4096]
//	     [-snapshot path.json] [-drain-timeout 30s]
//	     [-api-keys file|spec,...] [-anon-rate 0] [-anon-burst 0]
//	     [-trace-dir dir] [-trace-max-bytes 1073741824]
//	     [-trace-byte-rate 0] [-trace-byte-burst 0] [-advertise URL]
//	     [-peers http://b1:8080,http://b2:8080] [-health-interval 15s]
//	     [-scrape-interval 5s] [-log-sample 0] [-log-format text|json]
//	     [-log-level info] [-pprof] [-version]
//
// -api-keys turns on the multi-tenant front door: its value is either a
// keys file (one "name:key[:rate[:burst[:weight]]]" spec per line,
// #-comments allowed; "@path" also accepted) or an inline comma-separated
// spec list. Requests carrying a known X-Api-Key run as that tenant —
// rate-limited by its token bucket and scheduled by weighted fair
// queueing — while keyless requests fall back to the built-in anonymous
// tenant (throttled by -anon-rate/-anon-burst; 0 leaves it unlimited).
// Unknown keys get 401.
//
// With -peers, POST /v1/sweeps shards seed sweeps across the listed pcmd
// backends (coordinator mode); without it, sweeps run on an in-process
// loopback backend, so a single node still serves the full API. This is
// the fleet's only sweep coordinator: `pcmctl sweep -server` submits here.
// A failed shard is re-dispatched up to twice, a shard still running after
// 30s is hedged onto a second peer, and -job-timeout bounds each shard.
// Every -health-interval the coordinator probes each peer's /healthz; a
// failed probe (a drained peer answers 503) opens that peer's circuit
// breaker, and the next good probe closes it.
//
// The fleet health plane scrapes every backend's /metrics (its own
// in-process) each -scrape-interval and serves the aggregated view on
// GET /v1/fleet/status (?watch=1 streams it over SSE; see `pcmctl
// status` and `pcmctl top`), with rates and quantiles over the last
// minute. -log-sample rate-limits per-route access-log lines; error
// responses always log.
//
// Logs are structured (log/slog) on stderr: text for terminals, -log-format
// json for collectors. -pprof mounts net/http/pprof under /debug/pprof/
// (off by default). -version prints the ldflags-stamped build identity.
//
// SIGINT/SIGTERM begin a graceful drain: new submissions get 503, running
// and queued jobs finish (up to -drain-timeout), the final snapshot (when
// -snapshot is set; it is also written every minute) is written, then the
// process exits. On the next start the snapshot restores finished jobs and
// the result cache, so a restart does not forget completed sweeps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pcmcomp/internal/obs"
	"pcmcomp/internal/server"
	"pcmcomp/internal/tenant"
	"pcmcomp/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "pcmd:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until the context is cancelled and the
// drain completes. If ready is non-nil, the bound address is sent on it
// once the listener is up (used by tests to discover an ephemeral port).
func run(ctx context.Context, args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("pcmd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "job queue depth")
	cacheEntries := fs.Int("cache", 256, "result cache entries (negative disables)")
	jobTimeout := fs.Duration("job-timeout", 15*time.Minute, "per-job execution deadline")
	jobTTL := fs.Duration("job-ttl", time.Hour, "how long finished job and sweep handles stay pollable")
	maxJobs := fs.Int("max-jobs", 4096, "job store bound (terminal jobs evicted beyond it)")
	snapshot := fs.String("snapshot", "", "crash-safety snapshot file (empty disables persistence)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline")
	apiKeys := fs.String("api-keys", "", "tenant API keys: a keys file path, @path, or inline name:key[:rate[:burst[:weight]]] specs (comma-separated)")
	anonRate := fs.Float64("anon-rate", 0, "anonymous-tenant submissions per second (0 = unlimited)")
	anonBurst := fs.Float64("anon-burst", 0, "anonymous-tenant burst size (0 = rate)")
	traceDir := fs.String("trace-dir", "", "uploaded-trace spool directory (empty: traces stay in memory only)")
	traceMaxBytes := fs.Int64("trace-max-bytes", 1<<30, "trace store capacity in canonical bytes")
	traceByteRate := fs.Float64("trace-byte-rate", 0, "per-tenant trace-upload bytes per second (0 = unlimited)")
	traceByteBurst := fs.Float64("trace-byte-burst", 0, "per-tenant trace-upload burst bytes (0 = rate)")
	advertise := fs.String("advertise", "", "this coordinator's own base URL, sent to backends so they can fetch trace digests")
	peers := fs.String("peers", "", "comma-separated pcmd base URLs for coordinator mode (empty: sweeps run locally)")
	healthInterval := fs.Duration("health-interval", 15*time.Second, "peer health-probe cadence")
	scrapeInterval := fs.Duration("scrape-interval", 5*time.Second, "fleet health-plane scrape cadence (negative disables /v1/fleet/status)")
	logSample := fs.Float64("log-sample", 0, "max access-log lines per second per route (0 logs everything; errors always log)")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println("pcmd", version.String())
		return nil
	}

	level, err := parseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		return err
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}

	keyed, err := tenant.Load(*apiKeys)
	if err != nil {
		return err
	}
	tenants, err := tenant.NewRegistry(keyed, *anonRate, *anonBurst)
	if err != nil {
		return err
	}

	svc := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		JobTimeout:     *jobTimeout,
		JobTTL:         *jobTTL,
		MaxJobs:        *maxJobs,
		SnapshotPath:   *snapshot,
		Peers:          peerList,
		HealthInterval: *healthInterval,
		Tenants:        tenants,
		TraceDir:       *traceDir,
		TraceMaxBytes:  *traceMaxBytes,
		TraceByteRate:  *traceByteRate,
		TraceByteBurst: *traceByteBurst,
		AdvertiseURL:   *advertise,
		ScrapeInterval: *scrapeInterval,
		LogSampleQPS:   *logSample,
		Logger:         logger,
		EnablePprof:    *enablePprof,
	})
	if err := svc.RestoreError(); err != nil {
		logger.Warn("starting with an empty store", "err", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	httpSrv := &http.Server{Handler: svc}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(), "workers", *workers,
		"version", version.String(), "pprof", *enablePprof)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", "deadline", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the pool first while the listener keeps serving: new
	// submissions get 503 and pollers can watch their jobs finish. Only
	// then close the HTTP side.
	svcErr := svc.Shutdown(drainCtx)
	httpErr := httpSrv.Shutdown(drainCtx)
	if svcErr != nil {
		return fmt.Errorf("drain incomplete: %w", svcErr)
	}
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		return httpErr
	}
	logger.Info("drained, exiting")
	return nil
}

// parseLevel maps the -log-level spelling onto a slog.Level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
	}
}
