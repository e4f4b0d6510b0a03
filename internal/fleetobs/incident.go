package fleetobs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"pcmcomp/internal/obs"
)

// Incident is one captured SLO-breach bundle: everything an operator
// needs to start debugging after the fact — the fleet snapshot at the
// moment of the breach, the burn-rate evidence, the most recent
// completed traces, the health plane's own timeline slice, and
// goroutine + CPU profiles captured asynchronously right after the
// trip. CPUProfile is raw pprof protobuf (base64 in JSON); feed it to
// `go tool pprof`.
type Incident struct {
	ID        string        `json:"id"`
	Time      time.Time     `json:"time"`
	Objective string        `json:"objective"`
	Reason    string        `json:"reason"`
	Windows   []WindowEval  `json:"windows"`
	Snapshot  FleetSnapshot `json:"snapshot"`

	Traces   json.RawMessage `json:"traces,omitempty"`
	Timeline []obs.Event     `json:"timeline,omitempty"`

	GoroutineProfile  string  `json:"goroutine_profile,omitempty"`
	CPUProfile        []byte  `json:"cpu_profile,omitempty"`
	CPUProfileSeconds float64 `json:"cpu_profile_seconds,omitempty"`
	CPUProfileError   string  `json:"cpu_profile_error,omitempty"`

	// Complete flips once the asynchronous profile capture lands.
	Complete bool `json:"complete"`
}

// IncidentSummary is the listing row for /debug/incidents.
type IncidentSummary struct {
	ID        string    `json:"id"`
	Time      time.Time `json:"time"`
	Objective string    `json:"objective"`
	Reason    string    `json:"reason"`
	Complete  bool      `json:"complete"`
}

// incidentRing retains the most recent max incidents, newest last.
type incidentRing struct {
	mu        sync.Mutex
	max       int
	seq       uint64
	incidents []*Incident
}

func newIncidentRing(max int) *incidentRing { return &incidentRing{max: max} }

// add assigns the incident an ID, appends it, and evicts the oldest
// beyond the bound. Returns the assigned ID.
func (r *incidentRing) add(inc *Incident) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	inc.ID = fmt.Sprintf("inc-%06d", r.seq)
	r.incidents = append(r.incidents, inc)
	if len(r.incidents) > r.max {
		over := len(r.incidents) - r.max
		r.incidents = append(r.incidents[:0:0], r.incidents[over:]...)
	}
	return inc.ID
}

// complete records the asynchronously captured profiles. A no-op when
// the incident was already evicted.
func (r *incidentRing) complete(id, goroutines string, cpu []byte, cpuSecs float64, cpuErr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, inc := range r.incidents {
		if inc.ID == id {
			inc.GoroutineProfile = goroutines
			inc.CPUProfile = cpu
			inc.CPUProfileSeconds = cpuSecs
			inc.CPUProfileError = cpuErr
			inc.Complete = true
			return
		}
	}
}

// list returns summaries, newest first.
func (r *incidentRing) list() []IncidentSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]IncidentSummary, 0, len(r.incidents))
	for i := len(r.incidents) - 1; i >= 0; i-- {
		inc := r.incidents[i]
		out = append(out, IncidentSummary{
			ID: inc.ID, Time: inc.Time, Objective: inc.Objective,
			Reason: inc.Reason, Complete: inc.Complete,
		})
	}
	return out
}

// get returns a copy of one incident by ID. The contained slices and
// maps are never mutated after being set, so a shallow copy is safe to
// hand to encoders.
func (r *incidentRing) get(id string) (Incident, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, inc := range r.incidents {
		if inc.ID == id {
			return *inc, true
		}
	}
	return Incident{}, false
}

// counts reports the ring's totals for the snapshot's IncidentInfo.
func (r *incidentRing) counts() IncidentInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := IncidentInfo{Total: r.seq, Stored: len(r.incidents)}
	if n := len(r.incidents); n > 0 {
		info.LastID = r.incidents[n-1].ID
	}
	return info
}
