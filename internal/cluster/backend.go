package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pcmcomp/internal/obs"
	"pcmcomp/internal/pcmclient"
)

// Backend is one execution target for shards. Implementations must be safe
// for concurrent RunJob calls, and must abort promptly when the context is
// canceled — the coordinator relies on that to reclaim hedged duplicates.
type Backend interface {
	// Name identifies the backend in metrics and errors.
	Name() string
	// RunJob executes one job of the given kind and returns its raw result
	// payload. Cancellation of ctx must stop the work (for a remote
	// backend, by canceling the submitted job).
	RunJob(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error)
	// Check probes the backend's health (used by the coordinator's health
	// loop to close an open circuit).
	Check(ctx context.Context) error
}

// RunFunc executes one job in-process; it is the loopback backend's engine.
// internal/server exports one (ExecuteLocal) so a peerless pcmd degrades to
// local execution, and tests substitute fakes.
type RunFunc func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error)

// Loopback is an in-process backend: shards run in the coordinator's own
// process through a RunFunc. It is always healthy.
type Loopback struct {
	name string
	run  RunFunc
}

// NewLoopback builds an in-process backend.
func NewLoopback(name string, run RunFunc) *Loopback {
	return &Loopback{name: name, run: run}
}

func (l *Loopback) Name() string { return l.name }

func (l *Loopback) RunJob(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
	return l.run(ctx, kind, params)
}

func (l *Loopback) Check(context.Context) error { return nil }

// HTTPBackend runs shards on a remote pcmd daemon: submit as a shard, wait
// on the job's event stream (so a shard completes the moment its terminal
// event arrives), then a best-effort DELETE /v1/jobs/{id}. On a finished
// shard the DELETE releases the job: the coordinator merges from the
// result it holds, so the peer drops the document and keeps only the
// result in its bounded result cache. When the shard's context is
// canceled (hedge lost, sweep canceled), the same DELETE frees the remote
// worker instead of letting it burn CPU on a result nobody wants.
type HTTPBackend struct {
	// Client is the underlying pcmd client; callers may tune its retry
	// knobs before the first RunJob.
	Client *pcmclient.Client
	name   string
}

// NewHTTPBackend builds a backend for the pcmd daemon at baseURL.
func NewHTTPBackend(baseURL string) *HTTPBackend {
	c := pcmclient.New(baseURL)
	c.Shard = true
	return &HTTPBackend{Client: c, name: baseURL}
}

func (h *HTTPBackend) Name() string { return h.name }

func (h *HTTPBackend) RunJob(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
	j, err := h.Client.Submit(ctx, kind, params)
	if err != nil {
		return nil, fmt.Errorf("backend %s: submit: %w", h.name, err)
	}
	id := j.ID
	w, err := h.Client.Watch(ctx, id, nil)
	if w != nil {
		j = w
	}
	// Graft the backend's execution spans into the caller's trace: the
	// remote job ran under the trace ID we propagated, so its reported
	// spans slot straight into the coordinator's span tree.
	obs.RecordAll(ctx, j.Spans)
	if err != nil {
		if ctx.Err() != nil {
			// The coordinator abandoned this attempt (hedge lost, sweep
			// canceled); release the remote job under a fresh context (ours
			// is already dead). Watch returns a nil job on a canceled
			// stream, so the DELETE targets the ID captured at submission.
			h.deleteJob(id)
		}
		return nil, fmt.Errorf("backend %s: %w", h.name, err)
	}
	h.deleteJob(id) // finished: release it
	if j.State != pcmclient.StateDone {
		return nil, fmt.Errorf("backend %s: %w", h.name, &pcmclient.JobFailed{Job: *j})
	}
	return j.Result, nil
}

// deleteJob best-effort-DELETEs an abandoned or finished job.
func (h *HTTPBackend) deleteJob(id string) {
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _ = h.Client.Cancel(ctx, id)
}

func (h *HTTPBackend) Check(ctx context.Context) error {
	return h.Client.Health(ctx)
}
