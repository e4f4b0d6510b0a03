package cluster

import "sync/atomic"

// Metrics counts the coordinator's dispatch decisions. All fields are
// atomics: shard attempts update them concurrently, and scrapers read them
// through Snapshot without stopping the world.
type Metrics struct {
	dispatched    atomic.Uint64 // attempts launched (primaries + hedges + retries)
	retries       atomic.Uint64 // shard re-dispatches after a failed attempt
	hedges        atomic.Uint64 // duplicate dispatches for straggler shards
	hedgeCancels  atomic.Uint64 // losing duplicates canceled after a win
	shardFailures atomic.Uint64 // attempts that returned an error
	breakerOpens  atomic.Uint64 // circuit-breaker open transitions
	probeOK       atomic.Uint64 // health probes that succeeded
	probeFail     atomic.Uint64 // health probes that failed
}

// MetricsSnapshot is a point-in-time copy of the counters.
type MetricsSnapshot struct {
	Dispatched    uint64 `json:"dispatched"`
	Retries       uint64 `json:"retries"`
	Hedges        uint64 `json:"hedges"`
	HedgeCancels  uint64 `json:"hedge_cancels"`
	ShardFailures uint64 `json:"shard_failures"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	ProbesOK      uint64 `json:"probes_ok"`
	ProbesFailed  uint64 `json:"probes_failed"`
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Dispatched:    m.dispatched.Load(),
		Retries:       m.retries.Load(),
		Hedges:        m.hedges.Load(),
		HedgeCancels:  m.hedgeCancels.Load(),
		ShardFailures: m.shardFailures.Load(),
		BreakerOpens:  m.breakerOpens.Load(),
		ProbesOK:      m.probeOK.Load(),
		ProbesFailed:  m.probeFail.Load(),
	}
}

// BackendStatus is one backend's health and load as seen by the picker.
type BackendStatus struct {
	Name             string `json:"name"`
	Inflight         int64  `json:"inflight"`
	Healthy          bool   `json:"healthy"`
	ConsecutiveFails int    `json:"consecutive_fails"`
}
