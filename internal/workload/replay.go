package workload

import (
	"fmt"

	"pcmcomp/internal/trace"
)

// Replay is a recorded trace prepared for the lifetime simulator.
// Addresses are densified on construction — each distinct address is
// renumbered by order of first appearance — so a sparse physical trace
// maps onto the simulator's dense line space deterministically,
// independent of how the trace was collected. It is the one rule for
// replaying a recorded trace: pcmd lifetime jobs and the lifetime CLI's
// -trace both apply it.
type Replay struct {
	events []trace.Event
}

// NewReplay densifies recorded events.
func NewReplay(events []trace.Event) (*Replay, error) {
	if len(events) == 0 {
		return nil, trace.ErrEmptyTrace
	}
	remap := make(map[int]int)
	out := make([]trace.Event, len(events))
	for i, ev := range events {
		if ev.Addr < 0 {
			return nil, fmt.Errorf("workload: trace event %d has negative address %d", i, ev.Addr)
		}
		dense, ok := remap[ev.Addr]
		if !ok {
			dense = len(remap)
			remap[ev.Addr] = dense
		}
		out[i] = trace.Event{Addr: dense, Data: ev.Data}
	}
	return &Replay{events: out}, nil
}

// Events returns the densified event sequence (shared, not a copy —
// callers must not mutate it).
func (r *Replay) Events() []trace.Event { return r.events }
