// Package pcmclient is the Go client for the pcmd simulation service:
// submit, poll, wait, and cancel jobs against a running daemon, with
// retry, exponential backoff, and jitter on transient failures (503s and
// other 5xx responses, transport errors).
//
// The retry policy matches the server's two distinct 503s: a full queue
// is transient (the server sends Retry-After, the client backs off and
// resubmits), while a 4xx is the caller's bug and fails immediately.
// Typical use:
//
//	c := pcmclient.New("http://localhost:8080")
//	job, err := c.Run(ctx, pcmclient.KindCompression,
//	    map[string]any{"apps": []string{"milc"}, "scale": "quick"})
//
// Run submits and waits; Submit/Poll/Cancel are the primitives for
// callers that manage many jobs at once.
package pcmclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pcmcomp/internal/obs"
)

// The job kinds, mirroring the server's POST /v1/jobs/{kind} endpoints.
const (
	KindLifetime           = "lifetime"
	KindFailureProbability = "failure-probability"
	KindCompression        = "compression"
)

// The job lifecycle states, mirroring internal/server.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is the client's view of a job document. Result holds the raw JSON
// payload once the job is done; unmarshal it into the kind's result type.
type Job struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	// TraceID is the trace the job belongs to (propagated from the
	// submitter's X-Pcmd-Trace-Id, or opened by the server).
	TraceID string `json:"trace_id,omitempty"`
	// TraceDigest is the data trace a trace-driven job replays
	// ("sha256:..."), distinct from the observability TraceID.
	TraceDigest string `json:"trace_digest,omitempty"`
	// Spans are the server-side execution spans reported back with the
	// terminal job document, so a caller can graft the remote work into
	// its own trace (obs.RecordAll).
	Spans []obs.SpanData `json:"spans,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool {
	return j.State == StateDone || j.State == StateFailed || j.State == StateCanceled
}

// APIError is a non-retryable error response from the service (4xx, or a
// 5xx that survived every retry).
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("pcmd: %d: %s", e.StatusCode, e.Message)
}

// ErrJobFailed is the sentinel matched by errors.Is when a job reached
// failed or canceled instead of done. The concrete error is *JobFailed,
// which carries the job document — including the server's terminal error
// body — for callers that need more than a yes/no.
var ErrJobFailed = errors.New("pcmd: job did not complete")

// JobFailed is returned by Wait/Run when the job reached failed or
// canceled instead of done. Job.Error holds the server's terminal error
// body (the reason the simulation failed, or the cancellation cause).
type JobFailed struct {
	Job Job
}

func (e *JobFailed) Error() string {
	msg := e.Job.Error
	if msg == "" {
		msg = "(no error body)"
	}
	return fmt.Sprintf("pcmd: job %s %s: %s", e.Job.ID, e.Job.State, msg)
}

// Is lets errors.Is(err, ErrJobFailed) match without losing the job body.
func (e *JobFailed) Is(target error) bool { return target == ErrJobFailed }

// Client talks to one pcmd instance. The zero value is not usable; create
// with New and adjust the exported knobs before the first call.
type Client struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (default 4).
	MaxRetries int
	// BaseBackoff is the first retry delay; each retry doubles it up to
	// MaxBackoff, then ±50% jitter decorrelates clients that failed
	// together (defaults 100ms and 5s). A server Retry-After hint
	// overrides the computed delay when it is longer.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PollInterval is Wait's cadence (default 250ms).
	PollInterval time.Duration
	// APIKey, when set, is sent as X-Api-Key on every request, so the
	// client acts as that tenant against a multi-tenant pcmd. Empty means
	// the anonymous tenant.
	APIKey string
	// TraceSource, when set, is sent as X-Trace-Source on every request: a
	// coordinator dispatching sweep shards advertises its own base URL here
	// so the backend can fetch trace digests it has never seen.
	TraceSource string
	// Logger, when set, narrates the client's retry machinery — each
	// backoff sleep with its attempt, delay, and cause — plus submissions
	// and cancellations. Nil stays silent (the default): the retries that
	// used to be invisible sleeps become log lines only when asked for.
	Logger *slog.Logger

	// sleep is swappable so tests can run retries without wall-clock
	// delays; it must honor ctx cancellation.
	sleep func(ctx context.Context, d time.Duration) error
}

// logger returns the configured logger or a silent one.
func (c *Client) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.NopLogger()
}

// New returns a client with the default retry policy.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:      strings.TrimRight(baseURL, "/"),
		HTTPClient:   http.DefaultClient,
		MaxRetries:   4,
		BaseBackoff:  100 * time.Millisecond,
		MaxBackoff:   5 * time.Second,
		PollInterval: 250 * time.Millisecond,
	}
}

// backoff computes the delay before retry attempt (0-based), exponential
// with ±50% jitter.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.BaseBackoff << attempt
	if d > c.MaxBackoff || d <= 0 {
		d = c.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)+1))
}

func (c *Client) doSleep(ctx context.Context, d time.Duration) error {
	// Check cancellation before arming the timer: with a short (or zero)
	// jittered delay and an already-canceled context, the select below
	// races two ready channels and can let a canceled Wait finish the
	// pending sleep — and another poll — before noticing.
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfter parses a Retry-After hint in either RFC 9110 form —
// delta-seconds or an HTTP-date — relative to now. 0 when absent,
// malformed, or already in the past. The caller clamps the hint; a
// buggy or hostile server must not be able to park the client for
// hours.
func retryAfter(resp *http.Response, now time.Time) time.Duration {
	if resp == nil {
		return 0
	}
	v := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// do issues one request with a JSON body (nil for none) under the retry
// policy and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	if body == nil {
		return c.send(ctx, method, path, nil, "", out)
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("pcmclient: encode request: %w", err)
	}
	return c.send(ctx, method, path, buf, "application/json", out)
}

// send issues one request under the retry policy and decodes the JSON
// response into out. The body bytes (nil for none) are resent verbatim on
// each attempt, labeled with contentType.
func (c *Client) send(ctx context.Context, method, path string, body []byte, contentType string, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", contentType)
		}
		if c.APIKey != "" {
			req.Header.Set("X-Api-Key", c.APIKey)
		}
		if c.TraceSource != "" {
			req.Header.Set("X-Trace-Source", c.TraceSource)
		}
		// Propagate the caller's trace so the server's spans join it.
		obs.Inject(ctx, req)
		retry, err := c.attempt(req, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retry || attempt >= c.MaxRetries {
			if retry {
				c.logger().Warn("pcmclient: retries exhausted",
					"method", method, "path", path, "attempts", attempt+1, "err", lastErr.Error())
			}
			return lastErr
		}
		delay := c.backoff(attempt)
		if hint := lastRetryAfter(err); hint > delay {
			delay = hint
		}
		// The server's hint never overrides the client's own ceiling: an
		// unclamped Retry-After could park the client for hours.
		if c.MaxBackoff > 0 && delay > c.MaxBackoff {
			delay = c.MaxBackoff
		}
		c.logger().Info("pcmclient: retrying",
			"method", method, "path", path, "attempt", attempt+1,
			"delay", delay.Round(time.Millisecond).String(), "err", lastErr.Error())
		if err := c.doSleep(ctx, delay); err != nil {
			return err
		}
	}
}

// retryableError wraps a retryable failure with the server's Retry-After
// hint so the backoff loop can honor it.
type retryableError struct {
	err  error
	hint time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func lastRetryAfter(err error) time.Duration {
	if re, ok := err.(*retryableError); ok {
		return re.hint
	}
	return 0
}

// attempt runs one HTTP round trip. It reports whether a failure is
// retryable (transport error or 5xx) and decodes success into out.
func (c *Client) attempt(req *http.Request, out any) (retry bool, err error) {
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		// Transport errors are retryable unless the context is gone.
		if req.Context().Err() != nil {
			return false, req.Context().Err()
		}
		return true, &retryableError{err: err}
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return true, &retryableError{err: err}
	}
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		// 5xx (full queue, draining, upstream trouble) and 429 (tenant
		// quota) are transient: back off — honoring Retry-After — and
		// resubmit.
		return true, &retryableError{
			err:  &APIError{StatusCode: resp.StatusCode, Message: errorMessage(buf)},
			hint: retryAfter(resp, time.Now()),
		}
	}
	if resp.StatusCode >= 400 {
		return false, &APIError{StatusCode: resp.StatusCode, Message: errorMessage(buf)}
	}
	if out == nil {
		return false, nil
	}
	if err := json.Unmarshal(buf, out); err != nil {
		return false, fmt.Errorf("pcmclient: decode response: %w", err)
	}
	return false, nil
}

// errorMessage extracts the {"error": "..."} body the service sends, or
// falls back to the raw bytes.
func errorMessage(buf []byte) string {
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(buf, &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return strings.TrimSpace(string(buf))
}

// Submit posts a job of the given kind. params may be any
// JSON-serializable value matching the kind's parameter schema (a struct
// or map). The returned job is queued — or already done on a cache hit.
func (c *Client) Submit(ctx context.Context, kind string, params any) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+kind, params, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Poll fetches a job's current document.
func (c *Client) Poll(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Cancel requests cancellation of a queued or running job and returns the
// job document as of the request. A queued job is canceled synchronously;
// a running job transitions within one of the server's context-poll
// intervals — use Wait to observe the final state.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	c.logger().Info("pcmclient: canceling job", "job_id", id)
	var j Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Wait polls until the job reaches a terminal state. A done job returns
// (job, nil); failed or canceled returns the job inside a *JobFailed.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	for {
		j, err := c.Poll(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.Terminal() {
			if j.State != StateDone {
				return j, &JobFailed{Job: *j}
			}
			return j, nil
		}
		if err := c.doSleep(ctx, interval); err != nil {
			return nil, err
		}
	}
}

// Health probes GET /healthz with a single attempt — no retries, so a
// draining or dead daemon is reported immediately (cluster health checks
// must observe failure fast, not mask it with backoff).
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	if c.APIKey != "" {
		req.Header.Set("X-Api-Key", c.APIKey)
	}
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode, Message: errorMessage(buf)}
	}
	return nil
}

// ListOptions filter GET /v1/jobs.
type ListOptions struct {
	// State restricts the listing to one lifecycle state (empty = all).
	State string
	// Limit bounds the page size (0 = server default).
	Limit int
	// Offset skips that many jobs in creation order.
	Offset int
}

// JobSummary is one row of the job listing (no params or result payload).
type JobSummary struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    string     `json:"state"`
	CacheHit bool       `json:"cache_hit"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	TraceID  string     `json:"trace_id,omitempty"`
	// TraceDigest is the data trace a trace-driven job replays.
	TraceDigest string `json:"trace_digest,omitempty"`
}

// JobList is one page of the job listing.
type JobList struct {
	Jobs []JobSummary `json:"jobs"`
	// Total is the number of jobs matching the filter, across all pages.
	Total int `json:"total"`
	// Offset echoes the request; NextOffset is set when more pages remain.
	Offset     int  `json:"offset"`
	NextOffset *int `json:"next_offset,omitempty"`
}

// List fetches one page of the server's job listing.
func (c *Client) List(ctx context.Context, opts ListOptions) (*JobList, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", opts.State)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Offset > 0 {
		q.Set("offset", strconv.Itoa(opts.Offset))
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out JobList
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep is the client's view of a distributed sweep document, as served
// by POST /v1/sweeps and GET /v1/sweeps/{id}.
type Sweep struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	CacheHit    bool            `json:"cache_hit"`
	Created     time.Time       `json:"created"`
	Finished    *time.Time      `json:"finished,omitempty"`
	ShardsDone  int             `json:"shards_done"`
	ShardsTotal int             `json:"shards_total"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
}

// Terminal reports whether the sweep has reached a final state.
func (s *Sweep) Terminal() bool {
	return s.State == StateDone || s.State == StateFailed || s.State == StateCanceled
}

// SubmitSweep posts a distributed sweep to a coordinator pcmd. req may be
// any JSON-serializable value matching the sweep request schema (kind,
// params, seed_start, seed_count).
func (c *Client) SubmitSweep(ctx context.Context, req any) (*Sweep, error) {
	var sw Sweep
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &sw); err != nil {
		return nil, err
	}
	return &sw, nil
}

// PollSweep fetches a sweep's current document.
func (c *Client) PollSweep(ctx context.Context, id string) (*Sweep, error) {
	var sw Sweep
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &sw); err != nil {
		return nil, err
	}
	return &sw, nil
}

// WaitSweep polls until the sweep reaches a terminal state. onProgress
// (optional) observes shard progress along the way.
func (c *Client) WaitSweep(ctx context.Context, id string, onProgress func(done, total int)) (*Sweep, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	for {
		sw, err := c.PollSweep(ctx, id)
		if err != nil {
			return nil, err
		}
		if onProgress != nil {
			onProgress(sw.ShardsDone, sw.ShardsTotal)
		}
		if sw.Terminal() {
			return sw, nil
		}
		if err := c.doSleep(ctx, interval); err != nil {
			return nil, err
		}
	}
}

// Traces lists the completed traces the server's debug ring retains,
// newest first (GET /debug/traces).
func (c *Client) Traces(ctx context.Context) ([]obs.TraceSummary, error) {
	var out struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := c.do(ctx, http.MethodGet, "/debug/traces", nil, &out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

// Trace fetches one trace's spans assembled into parent/child trees
// (GET /debug/traces/{id}).
func (c *Client) Trace(ctx context.Context, id string) ([]*obs.SpanNode, error) {
	var out struct {
		Tree []*obs.SpanNode `json:"tree"`
	}
	if err := c.do(ctx, http.MethodGet, "/debug/traces/"+id, nil, &out); err != nil {
		return nil, err
	}
	return out.Tree, nil
}

// TraceMeta describes one trace stored by the server (the tracestore's
// metadata document).
type TraceMeta struct {
	// Digest is the content address, "sha256:<hex>" over the trace's
	// canonical binary encoding.
	Digest string `json:"digest"`
	// Bytes is the canonical encoding's size.
	Bytes int64 `json:"bytes"`
	// Events, Lines, and MaxAddr summarize the trace footprint.
	Events  int `json:"events"`
	Lines   int `json:"lines"`
	MaxAddr int `json:"max_addr"`
	// Created is when the server first saw the digest.
	Created time.Time `json:"created"`
}

// UploadTrace posts trace bytes — any encoding the server understands:
// tracegen binary, gzip, or NDJSON — to POST /v1/traces and returns the
// stored trace's metadata plus whether the bytes were newly stored (false
// = the digest was already present; the upload deduplicated to a no-op).
func (c *Client) UploadTrace(ctx context.Context, data []byte) (*TraceMeta, bool, error) {
	var out struct {
		Trace  TraceMeta `json:"trace"`
		Stored bool      `json:"stored"`
	}
	if err := c.send(ctx, http.MethodPost, "/v1/traces", data, "application/octet-stream", &out); err != nil {
		return nil, false, err
	}
	return &out.Trace, out.Stored, nil
}

// ListTraces lists every trace the server stores, newest first.
func (c *Client) ListTraces(ctx context.Context) ([]TraceMeta, error) {
	var out struct {
		Traces []TraceMeta `json:"traces"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/traces", nil, &out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

// DeleteTrace removes a stored trace by digest.
func (c *Client) DeleteTrace(ctx context.Context, digest string) error {
	return c.do(ctx, http.MethodDelete, "/v1/traces/"+digest, nil, nil)
}

// Run submits a job and waits for its result.
func (c *Client) Run(ctx context.Context, kind string, params any) (*Job, error) {
	j, err := c.Submit(ctx, kind, params)
	if err != nil {
		return nil, err
	}
	if j.Terminal() { // cache hit: born done
		if j.State != StateDone {
			return j, &JobFailed{Job: *j}
		}
		return j, nil
	}
	return c.Wait(ctx, j.ID)
}
