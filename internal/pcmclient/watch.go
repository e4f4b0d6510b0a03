package pcmclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pcmcomp/internal/obs"
)

// TimelineEvent is one flight-recorder event delivered over a Watch
// stream. Seq is the server-assigned sequence number (the SSE id),
// monotonically increasing over the timeline's lifetime; a reconnect
// resumes after the last seq seen, so no retained event is replayed
// twice or skipped.
type TimelineEvent struct {
	Seq   uint64
	Type  string
	Event obs.Event
}

// EventsDoc is the JSON (non-streaming) form of a flight-recorder
// timeline, as served by GET /v1/{jobs,sweeps}/{id}/events.
type EventsDoc struct {
	ID      string      `json:"id"`
	Events  []obs.Event `json:"events"`
	Count   int         `json:"count"`
	Dropped uint64      `json:"dropped,omitempty"`
}

// JobEvents fetches a job's timeline as one JSON document.
func (c *Client) JobEvents(ctx context.Context, id string) (*EventsDoc, error) {
	var doc EventsDoc
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// SweepEvents fetches a sweep's timeline as one JSON document.
func (c *Client) SweepEvents(ctx context.Context, id string) (*EventsDoc, error) {
	var doc EventsDoc
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/events", nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Watch streams a job's flight-recorder timeline over SSE: the retained
// history replays first, then live events follow until the job reaches
// a terminal state. onEvent (optional) observes every event in order.
// Dropped connections reconnect with Last-Event-ID under the client's
// retry policy. Returns the final job document; failed or canceled jobs
// return it inside a *JobFailed.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(TimelineEvent)) (*Job, error) {
	if err := c.watch(ctx, "/v1/jobs/"+id+"/events", onEvent); err != nil {
		return nil, err
	}
	j, err := c.Poll(ctx, id)
	if err != nil {
		return nil, err
	}
	if j.State == StateFailed || j.State == StateCanceled {
		return j, &JobFailed{Job: *j}
	}
	return j, nil
}

// WatchSweep streams a sweep's timeline over SSE until the sweep is
// terminal, then returns the final sweep document (a failed sweep is not
// an error; inspect Sweep.State).
func (c *Client) WatchSweep(ctx context.Context, id string, onEvent func(TimelineEvent)) (*Sweep, error) {
	if err := c.watch(ctx, "/v1/sweeps/"+id+"/events", onEvent); err != nil {
		return nil, err
	}
	return c.PollSweep(ctx, id)
}

// watch drives one logical SSE subscription across however many
// physical connections it takes: each drop reconnects with the last
// sequence number seen, consecutive connection failures are bounded by
// MaxRetries (the counter resets whenever a connection delivers
// events), and the loop ends when a terminal event arrives.
func (c *Client) watch(ctx context.Context, path string, onEvent func(TimelineEvent)) error {
	var lastSeq uint64
	haveSeq := false
	failures := 0
	for {
		terminal, delivered, err := c.streamOnce(ctx, path, &lastSeq, &haveSeq, onEvent)
		if terminal {
			return nil
		}
		if delivered > 0 {
			failures = 0
		}
		if _, retryable := err.(*retryableError); !retryable {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		failures++
		if failures > c.MaxRetries {
			c.logger().Warn("pcmclient: watch retries exhausted",
				"path", path, "attempts", failures, "err", err.Error())
			return err
		}
		delay := c.backoff(failures - 1)
		if hint := lastRetryAfter(err); hint > delay {
			delay = hint
		}
		if c.MaxBackoff > 0 && delay > c.MaxBackoff {
			delay = c.MaxBackoff
		}
		c.logger().Info("pcmclient: watch reconnecting",
			"path", path, "attempt", failures,
			"delay", delay.Round(time.Millisecond).String(), "err", err.Error())
		if err := c.doSleep(ctx, delay); err != nil {
			return err
		}
	}
}

// errStreamClosed reports a stream the server closed cleanly before the
// terminal event (e.g. while draining); watch resumes it like a drop.
var errStreamClosed = errors.New("pcmclient: event stream closed without a terminal event")

// streamOnce opens one SSE connection and pumps events until the stream
// ends. It updates lastSeq/haveSeq as events arrive so the caller can
// resume, reports whether a terminal event was seen and how many events
// were delivered, and wraps transient failures, a clean close among them,
// in *retryableError.
func (c *Client) streamOnce(ctx context.Context, path string, lastSeq *uint64, haveSeq *bool, onEvent func(TimelineEvent)) (terminal bool, delivered int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return false, 0, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Cache-Control", "no-cache")
	if c.APIKey != "" {
		req.Header.Set("X-Api-Key", c.APIKey)
	}
	if *haveSeq {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastSeq, 10))
	}
	obs.Inject(ctx, req)

	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, 0, ctx.Err()
		}
		return false, 0, &retryableError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: errorMessage(buf)}
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return false, 0, &retryableError{err: apiErr, hint: retryAfter(resp, time.Now())}
		}
		return false, 0, apiErr
	}
	if mt, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";"); strings.TrimSpace(mt) != "text/event-stream" {
		return false, 0, &APIError{StatusCode: resp.StatusCode,
			Message: fmt.Sprintf("expected text/event-stream, got %q", resp.Header.Get("Content-Type"))}
	}

	var (
		rd        = bufio.NewReader(resp.Body)
		eventName string
		dataLines []string
		seq       uint64
		haveID    bool
	)
	dispatch := func() bool {
		if eventName == "" && len(dataLines) == 0 {
			// A bare comment block (heartbeat) or empty frame.
			eventName, dataLines, haveID = "", nil, false
			return false
		}
		ev := TimelineEvent{Type: eventName}
		if ev.Type == "" {
			ev.Type = "message"
		}
		if haveID {
			ev.Seq = seq
			*lastSeq, *haveSeq = seq, true
		}
		if len(dataLines) > 0 {
			// Best effort: a frame whose data is not an obs.Event document
			// still delivers with its type and seq.
			_ = json.Unmarshal([]byte(strings.Join(dataLines, "\n")), &ev.Event)
		}
		delivered++
		if onEvent != nil {
			onEvent(ev)
		}
		done := ev.Type == "done" || ev.Type == "failed" || ev.Type == "canceled"
		eventName, dataLines, haveID = "", nil, false
		return done
	}
	for {
		line, err := rd.ReadString('\n')
		if len(line) > 0 {
			line = strings.TrimRight(line, "\r\n")
			switch {
			case line == "":
				if dispatch() {
					return true, delivered, nil
				}
			case strings.HasPrefix(line, ":"):
				// Comment (heartbeat / drain notice): keep-alive only.
			case strings.HasPrefix(line, "id:"):
				if n, perr := strconv.ParseUint(strings.TrimSpace(line[len("id:"):]), 10, 64); perr == nil {
					seq, haveID = n, true
				}
			case strings.HasPrefix(line, "event:"):
				eventName = strings.TrimSpace(line[len("event:"):])
			case strings.HasPrefix(line, "data:"):
				dataLines = append(dataLines, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				return false, delivered, ctx.Err()
			}
			if err == io.EOF {
				err = errStreamClosed
			}
			return false, delivered, &retryableError{err: err}
		}
	}
}
