// Package lifetime implements the paper's trace-driven PCM lifetime
// simulator (§IV "Fault model"): it replays an LLC write-back trace through
// a core.Controller until the failure criterion — 50% of memory capacity
// worn out — is met, and converts the surviving write count into wall-clock
// lifetime.
//
// # Scaling
//
// Simulating 10^7-write cell endurance over gigabytes is intractable in a
// unit-test-friendly library, so experiments run with mean endurance and
// capacity scaled down and rescale the result (see TimeModel): lifetime
// ratios between systems — the paper's reported metric — are invariant
// under uniform endurance scaling, and capacity enters linearly once
// wear-leveling spreads traffic across the simulated region. The intra-line
// wear-leveling counter must be scaled together with endurance (the paper's
// 16-bit counter assumes 10^7-write cells); DefaultConfig picks a width
// that preserves the rotations-per-lifetime ratio.
package lifetime

import (
	"context"
	"fmt"
	"math"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/core"
	"pcmcomp/internal/trace"
)

// Config parameterizes one lifetime run.
type Config struct {
	// Controller configures the memory system under test.
	Controller core.Config
	// FailureFraction is the dead-capacity fraction that ends the run
	// (paper: 0.5).
	FailureFraction float64
	// MaxDemandWrites caps the run as a safety bound (0 = no cap).
	MaxDemandWrites uint64
	// CheckEvery sets how many demand writes pass between dead-fraction
	// checks (0 = default 1024).
	CheckEvery int
	// OnProgress, when non-nil, is invoked with the demand-write count at
	// the dead-fraction-check cadence (every CheckEvery writes) and once
	// more when the run stops. It runs on the simulation goroutine, so it
	// must be cheap — an atomic store, not a lock.
	OnProgress func(demandWrites uint64)
}

// DefaultConfig returns a lifetime configuration for the given system on a
// scaled-down substrate: the paper's failure criterion, and an intra-line
// counter width rescaled to the substrate's endurance.
func DefaultConfig(ctrl core.Config) Config {
	// Scale the intra-line rotation period with endurance. Two competing
	// constraints: rotations must sweep every byte offset well within a
	// line's lifetime, but must stay rare relative to per-line write
	// intervals — consecutive writes to a line should usually share an
	// origin, or the misaligned overlap inflates DW flips and (as the
	// Comp+W-vs-Comp ordering shows) cancels the leveling benefit.
	// Period = endurance/2 balances both and recovers the paper's 16-bit
	// counter at the real 1e7-write endurance.
	bits := 6
	for bits < 16 && float64(uint64(1)<<(bits+1)) <= ctrl.Memory.Endurance.Mean/2 {
		bits++
	}
	ctrl.IntraCounterBits = bits
	return Config{
		Controller:      ctrl,
		FailureFraction: 0.5,
		CheckEvery:      1024,
	}
}

// Result is the outcome of one lifetime run.
type Result struct {
	// DemandWrites is the number of trace write-backs replayed before the
	// memory failed (excludes wear-leveling copies).
	DemandWrites uint64
	// Replays counts full passes over the trace.
	Replays int
	// Failed is true when the failure fraction was reached (false means
	// the MaxDemandWrites cap stopped the run first).
	Failed bool
	// FinalDeadFraction is the dead-capacity fraction at stop time.
	FinalDeadFraction float64
	// Stats snapshots the controller counters at stop time.
	Stats core.Stats
}

// Normalized returns this result's lifetime relative to a baseline run, the
// paper's headline metric (Fig 10/13).
func (r Result) Normalized(baseline Result) float64 {
	if baseline.DemandWrites == 0 {
		return 0
	}
	return float64(r.DemandWrites) / float64(baseline.DemandWrites)
}

// Run replays the trace cyclically through a fresh controller built from
// cfg until failure. The trace's addresses are folded onto the controller's
// logical address space.
func Run(cfg Config, events []trace.Event) (Result, error) {
	return RunContext(context.Background(), cfg, events)
}

// RunContext is Run with cancellation: the context is polled at the same
// cadence as the dead-fraction check (CheckEvery demand writes), so an
// expired deadline or an interrupt stops the replay within one check
// interval. On cancellation it returns the partial Result accumulated so
// far — with Stats and FinalDeadFraction filled in, so callers can report
// progress — together with ctx.Err().
func RunContext(ctx context.Context, cfg Config, events []trace.Event) (Result, error) {
	if len(events) == 0 {
		return Result{}, fmt.Errorf("lifetime: empty trace")
	}
	if cfg.FailureFraction <= 0 || cfg.FailureFraction > 1 {
		return Result{}, fmt.Errorf("lifetime: failure fraction %v out of (0,1]", cfg.FailureFraction)
	}
	ctrl, err := core.New(cfg.Controller)
	if err != nil {
		return Result{}, err
	}
	checkEvery := cfg.CheckEvery
	if checkEvery <= 0 {
		checkEvery = 1024
	}
	logical := ctrl.LogicalLines()

	snapshot := func(res *Result) {
		res.FinalDeadFraction = ctrl.DeadFraction()
		res.Stats = ctrl.Stats()
		if cfg.OnProgress != nil {
			cfg.OnProgress(res.DemandWrites)
		}
	}

	var res Result
	memo := compressedTrace{bypass: len(events) > maxMemoEvents}
	for {
		res.Replays++
		for i := range events {
			memo.write(ctrl, i, events[i].Addr%logical, &events[i].Data)
			res.DemandWrites++
			if res.DemandWrites%uint64(checkEvery) == 0 {
				if cfg.OnProgress != nil {
					cfg.OnProgress(res.DemandWrites)
				}
				if ctrl.DeadFraction() >= cfg.FailureFraction {
					res.Failed = true
					snapshot(&res)
					return res, nil
				}
				if err := ctx.Err(); err != nil {
					snapshot(&res)
					return res, err
				}
			}
			if cfg.MaxDemandWrites > 0 && res.DemandWrites >= cfg.MaxDemandWrites {
				snapshot(&res)
				return res, nil
			}
		}
	}
}

// compressedTrace memoizes a controller's compression of each trace event
// across replays. Compression is a pure function of the block and the
// controller's codec configuration, so the result computed on the first
// pass is exactly what every later pass would recompute; feeding it back
// through Controller.WriteCompressed keeps the run bit-identical to one
// that calls Write throughout. The memo fills lazily, in trace order, so a
// run capped below one pass compresses only the events it writes, and it
// holds at most one payload byte per trace data byte. It lives for one
// run: a cache shared across runs would need its own bound and eviction.
type compressedTrace struct {
	// bypass routes every write through Controller.Write: the controller
	// stores writes uncompressed, or the trace is too long for 32-bit
	// arena offsets.
	bypass bool
	// events[i] is event i's encoding and the end of its payload in arena
	// (the payload starts where event i-1's ends).
	events []memoEvent
	arena  []byte
}

// maxMemoEvents bounds the memoized trace length so that every payload
// offset fits a uint32.
const maxMemoEvents = math.MaxUint32 / block.Size

type memoEvent struct {
	end uint32
	enc compress.Encoding
}

// write replays trace event i (data, folded onto logical address addr)
// through ctrl, compressing and memoizing it on its first replay. Events
// must first arrive in trace order, as the replay loop delivers them.
func (m *compressedTrace) write(ctrl *core.Controller, i, addr int, data *block.Block) {
	if m.bypass {
		ctrl.Write(addr, data)
		return
	}
	if i == len(m.events) {
		res, ok := ctrl.Compress(data)
		if !ok {
			m.bypass = true
			ctrl.Write(addr, data)
			return
		}
		m.arena = append(m.arena, res.Data...)
		m.events = append(m.events, memoEvent{end: uint32(len(m.arena)), enc: res.Encoding})
	}
	var start uint32
	if i > 0 {
		start = m.events[i-1].end
	}
	ev := m.events[i]
	ctrl.WriteCompressed(addr, data, compress.Result{Encoding: ev.enc, Data: m.arena[start:ev.end]})
}

// TimeModel converts simulated demand-write counts into wall-clock
// lifetime, following Table II's system parameters and the scaling rules in
// the package comment.
type TimeModel struct {
	// Cores, FreqHz and IPC give the instruction rate; WPKI converts it to
	// a write-back rate (Table II: 16 cores at 2.5GHz; IPC 1 assumed).
	Cores  int
	FreqHz float64
	IPC    float64
	WPKI   float64
	// EnduranceScale is realEndurance / simulatedEndurance.
	EnduranceScale float64
	// CapacityScale is realLines / simulatedLines.
	CapacityScale float64
}

// DefaultTimeModel returns the Table II machine for a workload with the
// given WPKI and the given substrate scaling.
func DefaultTimeModel(wpki, enduranceScale, capacityScale float64) TimeModel {
	return TimeModel{
		Cores: 16, FreqHz: 2.5e9, IPC: 1, WPKI: wpki,
		EnduranceScale: enduranceScale, CapacityScale: capacityScale,
	}
}

// Months converts a simulated demand-write count into projected months of
// operation at the modeled write rate.
func (tm TimeModel) Months(demandWrites uint64) float64 {
	writesPerSec := tm.WPKI / 1000 * tm.IPC * tm.FreqHz * float64(tm.Cores)
	if writesPerSec <= 0 {
		return 0
	}
	const secondsPerMonth = 30.44 * 24 * 3600
	scaled := float64(demandWrites) * tm.EnduranceScale * tm.CapacityScale
	return scaled / writesPerSec / secondsPerMonth
}
