package tenant

import "sync"

// PushResult classifies what happened to a PushBatch, mirroring the worker
// pool's submit outcomes: admitted, refused because the tenant's queue is
// at depth (transient — back off), or refused because the queue is closed
// for draining (terminal).
type PushResult int

const (
	PushOK PushResult = iota
	PushFull
	PushClosed
)

// Queue is a weighted deficit-round-robin fair queue: each tenant gets
// its own bounded FIFO, and Pop serves tenants in round-robin order,
// granting each visit a deficit of quantum x weight items. A tenant that
// floods its queue only delays itself — every other tenant with work
// still drains at least one item per round — while idle tenants consume
// nothing, so a single busy tenant gets the full capacity (DRR is
// work-conserving). Safe for concurrent use; Pop blocks until an item or
// Close-and-drained.
type Queue[T any] struct {
	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	perDepth int // max queued items per tenant
	tenants  map[string]*tenantQueue[T]
	active   []string // round order of tenants with queued items
	cur      int      // index into active of the tenant being served
	size     int      // total queued items
}

// tenantQueue is one tenant's FIFO plus its DRR accounting.
type tenantQueue[T any] struct {
	items   []T
	head    int // index of the first queued item (amortized O(1) pops)
	weight  int
	deficit int
	granted bool // deficit already granted for the current visit
}

func (t *tenantQueue[T]) len() int { return len(t.items) - t.head }

// NewQueue builds a queue admitting up to perTenantDepth items per
// tenant (<= 0 defaults to 64).
func NewQueue[T any](perTenantDepth int) *Queue[T] {
	if perTenantDepth <= 0 {
		perTenantDepth = 64
	}
	q := &Queue[T]{perDepth: perTenantDepth, tenants: make(map[string]*tenantQueue[T])}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// PushBatch enqueues items for a tenant atomically: either every item is
// admitted or none is (PushFull when they would exceed the tenant's
// depth) — the all-or-nothing contract batch submission needs. weight
// updates the tenant's DRR share (clamped to >= 1).
func (q *Queue[T]) PushBatch(tenant string, weight int, items []T) PushResult {
	if len(items) == 0 {
		return PushOK
	}
	if weight < 1 {
		weight = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return PushClosed
	}
	t := q.tenants[tenant]
	if t == nil {
		t = &tenantQueue[T]{}
		q.tenants[tenant] = t
	}
	t.weight = weight
	if t.len()+len(items) > q.perDepth {
		return PushFull
	}
	wasEmpty := t.len() == 0
	t.items = append(t.items, items...)
	if wasEmpty {
		t.deficit = 0
		t.granted = false
		q.active = append(q.active, tenant)
	}
	q.size += len(items)
	if len(items) == 1 {
		q.cond.Signal()
	} else {
		q.cond.Broadcast()
	}
	return PushOK
}

// Pop dequeues the next item under the DRR discipline, blocking until an
// item is available. It reports false only once the queue is closed and
// fully drained — Close lets queued work finish, matching a graceful
// drain.
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.cond.Wait()
	}
	for {
		t := q.tenants[q.active[q.cur]]
		if !t.granted {
			// First arrival of this round's visit: grant the quantum.
			t.deficit += t.weight
			t.granted = true
		}
		if t.deficit >= 1 && t.len() > 0 {
			item := t.items[t.head]
			var zero T
			t.items[t.head] = zero // release the reference
			t.head++
			if t.head == len(t.items) {
				t.items = t.items[:0]
				t.head = 0
			}
			t.deficit--
			q.size--
			if t.len() == 0 {
				// Empty queues leave the round and forfeit their deficit, so
				// an idle tenant cannot bank credit while away.
				t.deficit = 0
				t.granted = false
				q.active = append(q.active[:q.cur], q.active[q.cur+1:]...)
				if q.cur >= len(q.active) {
					q.cur = 0
				}
			}
			return item, true
		}
		// Visit exhausted: move to the next tenant in the round.
		t.granted = false
		q.cur++
		if q.cur >= len(q.active) {
			q.cur = 0
		}
	}
}

// Close stops admission and wakes every waiter; already-queued items
// still Pop. Idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len returns the total number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Depths returns the per-tenant queue occupancy for every tenant the
// queue has seen (zero entries included), for the /metrics gauges.
func (q *Queue[T]) Depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.tenants))
	for name, t := range q.tenants {
		out[name] = t.len()
	}
	return out
}
