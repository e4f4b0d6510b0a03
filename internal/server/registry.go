package server

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcmcomp/internal/obs"
)

// document is what the registry reads from the values it tracks: jobs and
// sweeps both implement it on their pointer types.
type document interface {
	docID() string
	docState() State
	// docFinished is the terminal timestamp, nil while the document is live.
	docFinished() *time.Time
	// timeline is the flight recorder, set at creation and never replaced,
	// so it may be read without the registry lock.
	timeline() *obs.Timeline
}

// registry is the bounded in-memory table behind both the job store and the
// sweep store. Terminal documents (done/failed/canceled) are bounded two
// ways: beyond capacity they are evicted oldest-finished-first, and expire
// drops those finished more than ttl ago. Live documents are never evicted —
// their count is bounded upstream (the pool's queue depth plus worker count
// for jobs; for sweeps, the submissions clients keep in flight, throttled by
// admission quotas) — and evicted results stay reachable through the
// content-addressed cache.
//
// The embedding store owns the state transitions: each mutates a document
// under mu and calls markTerminalLocked exactly once, when the document
// reaches a terminal state.
type registry[D document] struct {
	mu       sync.Mutex
	seq      uint64 // last issued ID sequence number
	capacity int
	ttl      time.Duration
	docs     map[string]D
	// terminal is the eviction order: oldest finished first, the next to
	// evict. A slice queue costs a pointer per finished document, where a
	// list element costs six words.
	terminal []D
	evicted  uint64 // documents dropped by either bound, for /metrics
}

func newRegistry[D document](capacity int, ttl time.Duration) *registry[D] {
	return &registry[D]{capacity: capacity, ttl: ttl, docs: make(map[string]D)}
}

// markTerminalLocked appends d to the terminal order and enforces the
// capacity bound. Callers hold r.mu and have already set the terminal state.
func (r *registry[D]) markTerminalLocked(d D) {
	r.terminal = append(r.terminal, d)
	for len(r.docs) > r.capacity && len(r.terminal) > 0 {
		r.dropOldestLocked()
	}
}

func (r *registry[D]) dropOldestLocked() {
	d := r.terminal[0]
	var gone D
	r.terminal[0] = gone // the queue's spent front must not pin the document
	r.terminal = r.terminal[1:]
	delete(r.docs, d.docID())
	r.evicted++
}

// releaseLocked drops a terminal document ahead of both bounds. It is
// found from the back of the terminal order, where the recently finished
// documents a release targets sit. Callers hold r.mu.
func (r *registry[D]) releaseLocked(d D) {
	delete(r.docs, d.docID())
	for i := len(r.terminal) - 1; i >= 0; i-- {
		if r.terminal[i].docID() == d.docID() {
			r.terminal = slices.Delete(r.terminal, i, i+1)
			return
		}
	}
}

// expire drops terminal documents finished more than ttl before now and
// returns how many it dropped. The housekeeping tick calls it.
func (r *registry[D]) expire(now time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for len(r.terminal) > 0 {
		f := r.terminal[0].docFinished()
		if f == nil || now.Sub(*f) < r.ttl {
			break // the list is finished-ordered; the rest are younger
		}
		r.dropOldestLocked()
		n++
	}
	return n
}

// evictedCount returns how many documents both bounds have dropped so far.
func (r *registry[D]) evictedCount() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// size returns the number of tracked documents, live and terminal.
func (r *registry[D]) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.docs)
}

// lookup returns the document with the given ID.
func (r *registry[D]) lookup(id string) (D, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.docs[id]
	return d, ok
}

// timeline returns a document's flight-recorder timeline for live
// subscription (the SSE streaming path).
func (r *registry[D]) timeline(id string) (*obs.Timeline, bool) {
	d, ok := r.lookup(id)
	if !ok {
		return nil, false
	}
	return d.timeline(), true
}

// events returns a document's flight-recorder timeline snapshot and how
// many early events its bound has discarded.
func (r *registry[D]) events(id string) ([]obs.Event, uint64, bool) {
	tl, ok := r.timeline(id)
	if !ok {
		return nil, 0, false
	}
	return tl.Events(), tl.Dropped(), true
}

// each calls fn on every tracked document, unordered. fn runs under the
// lock so it can copy a document consistently; it must not block or call
// back into the registry.
func (r *registry[D]) each(fn func(D)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.docs {
		fn(d)
	}
}

// export calls snap (under the lock, as each does) on every terminal
// document in eviction order, oldest finished first, and returns their
// flight-recorder timelines and the ID sequence, for snapshotting. Live
// documents are deliberately absent: a restart cannot resume them.
func (r *registry[D]) export(snap func(D)) (map[string][]obs.Event, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make(map[string][]obs.Event, len(r.terminal))
	for _, d := range r.terminal {
		snap(d)
		if evs := d.timeline().Events(); len(evs) > 0 {
			events[d.docID()] = evs
		}
	}
	return events, r.seq
}

// restore reinstates snapshotted terminal documents in their recorded
// order and advances the ID sequence past the snapshot's and every restored
// ID's, so new IDs cannot collide with them even when the recorded
// sequence is missing or stale. Live, malformed, or already-present
// entries are skipped. Each document arrives with an empty timeline, which
// gets its recorded events (when the snapshot has them) plus a
// snapshot_restored marker, so the flight recorder shows the restart
// boundary.
func (r *registry[D]) restore(docs []D, events map[string][]obs.Event, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq = max(r.seq, seq)
	for _, d := range docs {
		id := d.docID()
		if id == "" || !d.docState().Terminal() || d.docFinished() == nil {
			continue
		}
		if _, exists := r.docs[id]; exists {
			continue
		}
		if n, ok := idSeq(id); ok {
			r.seq = max(r.seq, n)
		}
		d.timeline().Restore(events[id])
		d.timeline().Add("snapshot_restored", "restored from snapshot")
		r.docs[id] = d
		r.markTerminalLocked(d)
	}
}

// idSeq returns the sequence number embedded in an ID the stores issue
// (store.add and sweepStore.add): the decimal digits after the one-letter
// prefix ("j000042-1f2e3d4c", "s000042"). An ID without that shape cannot
// collide with an issued one.
func idSeq(id string) (uint64, bool) {
	if len(id) < 2 {
		return 0, false
	}
	digits, _, _ := strings.Cut(id[1:], "-")
	n, err := strconv.ParseUint(digits, 10, 64)
	return n, err == nil
}
