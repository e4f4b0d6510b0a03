package server

import (
	"context"

	"pcmcomp/internal/parallel"
	"pcmcomp/internal/tenant"
)

// pool is the bounded worker pool that executes jobs: a fixed number of
// workers drain per-tenant queues through a deficit-round-robin
// dispatcher, so at most `workers` simulations run at once, at most
// `depth` wait per tenant, and no tenant can starve another — a tenant
// flooding its own queue only delays itself, while idle capacity still
// flows to whoever has work. Submission is non-blocking — a full tenant
// queue is that client's signal to back off (the server turns it into a
// 503).
type pool struct {
	queue *tenant.Queue[*Job]
	done  chan struct{}
	// onPanic handles a panic that escaped a job's exec: the worker
	// recovers, reports here, and keeps draining — a buggy kernel must
	// not retire a worker slot (or the process) for good.
	onPanic func(j *Job, cause any)
}

// newPool starts `workers` workers executing exec off per-tenant queues
// of the given depth. The workers are spawned through parallel.ForEach —
// the same bounded-concurrency primitive the experiment drivers use —
// and exit when the queue is closed and drained.
func newPool(workers, depth int, exec func(*Job), onPanic func(*Job, any)) *pool {
	p := &pool{
		queue:   tenant.NewQueue[*Job](depth),
		done:    make(chan struct{}),
		onPanic: onPanic,
	}
	go func() {
		defer close(p.done)
		// Each of the `workers` slots runs a drain loop until Close; the
		// exec callback never returns an error, so ForEach always nils.
		_ = parallel.ForEach(workers, workers, func(int) error {
			for {
				j, ok := p.queue.Pop()
				if !ok {
					return nil
				}
				p.runOne(j, exec)
			}
		})
	}()
	return p
}

// runOne executes one job, containing any panic to this job: the job is
// reported to onPanic (which fails it with the panic cause) and the
// worker slot stays alive for the next job.
func (p *pool) runOne(j *Job, exec func(*Job)) {
	defer func() {
		if v := recover(); v != nil && p.onPanic != nil {
			p.onPanic(j, v)
		}
	}()
	exec(j)
}

// submitResult says what happened to a Submit, so the server can tell a
// transient full queue (back off and retry) from a closed pool (the
// process is going away) — the two used to share an ambiguous false.
type submitResult int

const (
	submitOK        submitResult = iota
	submitQueueFull              // transient: retry after a backoff
	submitClosed                 // terminal: the pool is draining
)

// fromPush maps the fair queue's admission outcome onto submitResult.
func fromPush(r tenant.PushResult) submitResult {
	switch r {
	case tenant.PushFull:
		return submitQueueFull
	case tenant.PushClosed:
		return submitClosed
	default:
		return submitOK
	}
}

// Submit enqueues jobs of one tenant without blocking: either all of them
// are admitted or none is, which is the all-or-nothing half of the
// front door's validate-then-admit contract.
func (p *pool) Submit(jobs ...*Job) submitResult {
	if len(jobs) == 0 {
		return submitOK
	}
	return fromPush(p.queue.PushBatch(jobs[0].Tenant, int(jobs[0].weight), jobs))
}

// Depths reports per-tenant queue occupancy for the /metrics gauges.
func (p *pool) Depths() map[string]int { return p.queue.Depths() }

// Close stops admission; queued jobs still run. Idempotent.
func (p *pool) Close() { p.queue.Close() }

// Wait blocks until every worker has exited (all queued jobs drained) or
// the context expires, and reports which happened.
func (p *pool) Wait(ctx context.Context) error {
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
