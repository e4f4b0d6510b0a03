package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTimelineCap bounds one flight-recorder timeline: beyond it the
// oldest events are dropped (and counted), keeping the most recent
// history — the part that explains how a job ended.
const DefaultTimelineCap = 256

// Event is one entry of a flight-recorder timeline: what happened, when,
// and any small string fields that qualify it (backend, seed, cause...).
type Event struct {
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Msg    string            `json:"msg,omitempty"`
	Fields map[string]string `json:"fields,omitempty"`
}

// SubEvent is one event as delivered to a live subscriber, tagged with
// its monotonically-increasing sequence number (1-based over the
// timeline's lifetime). Sequence numbers survive the ring dropping old
// entries, so SSE clients can resume with Last-Event-ID.
type SubEvent struct {
	Seq   uint64
	Event Event
}

// Timeline is a bounded, append-only event log attached to one job or
// sweep. Writers append from worker goroutines; readers snapshot for the
// /events endpoints and for persistence, or subscribe for live delivery
// (the SSE streaming path). Safe for concurrent use.
type Timeline struct {
	mu      sync.Mutex
	cap     int
	dropped uint64
	total   uint64 // events ever appended; the latest event's Seq
	events  []Event
	subs    map[*Subscription]struct{}
}

// Subscription is one live listener on a timeline. Events arrive on C;
// the channel is buffered and sends never block the writer — a slow
// consumer loses events (counted in Missed) rather than stalling the
// job. The subscriber must call Unsubscribe when done.
type Subscription struct {
	C      chan SubEvent
	missed atomic.Uint64
}

// Missed reports how many events were dropped because the subscriber's
// buffer was full (the SSE handler tells such a client to re-sync).
func (s *Subscription) Missed() uint64 { return s.missed.Load() }

// NewTimeline builds a timeline bounded to capEvents entries (<= 0
// selects DefaultTimelineCap).
func NewTimeline(capEvents int) *Timeline {
	if capEvents <= 0 {
		capEvents = DefaultTimelineCap
	}
	return &Timeline{cap: capEvents}
}

// Add appends an event stamped now. fields are alternating key, value
// pairs; a trailing odd key is ignored.
func (t *Timeline) Add(typ, msg string, fields ...string) {
	t.AddAt(time.Now(), typ, msg, fields...)
}

// AddAt appends an event with an explicit timestamp (store transitions
// reuse the time they already took for the job document, keeping the
// timeline and the document consistent).
func (t *Timeline) AddAt(at time.Time, typ, msg string, fields ...string) {
	if t == nil {
		return
	}
	ev := Event{Time: at, Type: typ, Msg: msg}
	if len(fields) >= 2 {
		ev.Fields = make(map[string]string, len(fields)/2)
		for i := 0; i+1 < len(fields); i += 2 {
			ev.Fields[fields[i]] = fields[i+1]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.cap {
		// Drop the oldest half in one slide instead of shifting per event.
		half := t.cap / 2
		t.dropped += uint64(len(t.events) - half)
		t.events = append(t.events[:0], t.events[len(t.events)-half:]...)
	}
	t.events = append(t.events, ev)
	t.total++
	for sub := range t.subs {
		select {
		case sub.C <- SubEvent{Seq: t.total, Event: ev}:
		default:
			sub.missed.Add(1)
		}
	}
}

// Events snapshots the timeline in append order.
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Dropped reports how many events the bound has discarded.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Restore replaces the timeline's contents (snapshot restoration). Events
// beyond the cap keep only the most recent, matching Add's policy.
func (t *Timeline) Restore(events []Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(events) > t.cap {
		t.dropped += uint64(len(events) - t.cap)
		events = events[len(events)-t.cap:]
	}
	t.events = append([]Event(nil), events...)
	t.total = uint64(len(t.events))
}

// SubscribeReplay atomically snapshots the retained history and registers
// a live subscription, so the caller sees every event exactly once: the
// replay slice first, then everything after it on sub.C — no gap and no
// duplicate between the two. afterSeq trims the replay to events with
// Seq > afterSeq (an SSE Last-Event-ID resume); pass 0 for the full
// history. buffer sizes the live channel (<= 0 selects a sane default).
func (t *Timeline) SubscribeReplay(afterSeq uint64, buffer int) (replay []SubEvent, sub *Subscription) {
	if t == nil {
		return nil, nil
	}
	if buffer <= 0 {
		buffer = 64
	}
	sub = &Subscription{C: make(chan SubEvent, buffer)}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The retained window is the last len(events) of total appends, so
	// the first retained event carries Seq total-len+1.
	firstSeq := t.total - uint64(len(t.events)) + 1
	for i, ev := range t.events {
		seq := firstSeq + uint64(i)
		if seq <= afterSeq {
			continue
		}
		replay = append(replay, SubEvent{Seq: seq, Event: ev})
	}
	if t.subs == nil {
		t.subs = make(map[*Subscription]struct{})
	}
	t.subs[sub] = struct{}{}
	return replay, sub
}

// Unsubscribe detaches a subscription registered by SubscribeReplay.
// Idempotent; the channel is left open (readers drain and stop on their
// own context, never on a close they might race). The last subscriber to
// leave releases the subscriber map, so a timeline that was once streamed
// does not keep an empty map alive.
func (t *Timeline) Unsubscribe(sub *Subscription) {
	if t == nil || sub == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.subs, sub)
	if len(t.subs) == 0 {
		t.subs = nil
	}
}

// Subscribers reports the number of live subscriptions — the leak probe
// for the SSE teardown tests and the pcmd_sse_active gauge.
func (t *Timeline) Subscribers() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}
