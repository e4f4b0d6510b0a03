// Package lifetime implements the paper's trace-driven PCM lifetime
// simulator (§IV "Fault model"): it replays an LLC write-back trace through
// a core.Controller until the failure criterion — 50% of memory capacity
// worn out — is met, and converts the surviving write count into wall-clock
// lifetime.
//
// # Scaling
//
// Simulating 10^7-write cells over gigabytes is intractable here, so
// experiments scale mean endurance and capacity down and rescale the
// result (see TimeModel). Lifetime ratios between systems, the paper's
// metric, are not invariant under this scaling as measured: milc's
// Comp+WF ratio reads 4.83 / 4.63 / 2.32 at 17 / 65 / 257 lines per bank
// (gcc's stays within 1.36-1.52). The intra-line wear-leveling counter
// scales with endurance (the paper's 16-bit counter assumes 10^7-write
// cells); DefaultConfig picks a width that preserves the
// rotations-per-lifetime ratio.
package lifetime

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
	// Memo, when non-nil, shares the trace's compression with the other
	// runs over the same trace (see Memo); nil keeps it to this run.
	Memo *Memo
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

	rp, err := newReplayer(cfg.Memo, ctrl, events)
	if err != nil {
		return Result{}, err
	}
	var res Result
	for {
		res.Replays++
		for i := range events {
			rp.write(ctrl, events, i, events[i].Addr%logical)
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

// Memo shares the compression of one trace among the lifetime runs that
// replay it. Compression is a pure function of the block and the
// controller's codec configuration (core.Controller.Codec), so runs whose
// controllers share a codec would each compute the same result for every
// event: a Memo keeps it once per codec, filled by whichever run first
// reaches an event and read by the rest, concurrent runs included. Its
// zero value is ready to use.
//
// A Memo belongs to one trace, and whoever holds the trace holds its
// Memo and drops both together: the trace store's entry for a digest, an
// experiment's generated trace, a job's trace. Every run given a Memo
// must replay that same trace.
type Memo struct {
	mu     sync.Mutex
	traces []*compressedTrace
}

// maxMemoCodecs bounds the codecs one Memo keeps. A run whose codec finds
// the Memo full compresses into a private memo, as a run without a Memo
// does. A sweep's schemes mostly share the paper's BDI+FPC codec, and
// every codec costs at most 8 bytes per event plus one payload byte per
// trace data byte, so a Memo holds at most 144 bytes per event.
const maxMemoCodecs = 2

// forCodec returns the compressed trace of n events for codec, creating
// it when the Memo has room. A nil Memo, or a full one, yields a private
// compressedTrace.
func (m *Memo) forCodec(codec string, n int) (*compressedTrace, error) {
	if m == nil {
		return newCompressedTrace(codec, n), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ct := range m.traces {
		if ct.codec == codec {
			if ct.n != n {
				return nil, fmt.Errorf("lifetime: memo holds a trace of %d events, the run replays %d", ct.n, n)
			}
			return ct, nil
		}
	}
	ct := newCompressedTrace(codec, n)
	if len(m.traces) < maxMemoCodecs {
		m.traces = append(m.traces, ct)
	}
	return ct, nil
}

// compressedTrace is one codec's compression of each event of a trace.
// Feeding a memoized result back through Controller.WriteCompressed keeps
// a run bit-identical to one that calls Write throughout. It fills lazily,
// in trace order and a chunk at a time, so a run capped below one pass
// compresses little more than the events it writes, and it holds at most
// one payload byte per trace data byte: an event stored raw keeps none.
//
// Filling is serialized by mu. Each fill publishes a new memoFill that
// extends the previous one; a reader keeps the snapshot it loaded and
// reads only below its length, which no later fill rewrites.
type compressedTrace struct {
	codec string
	n     int // the trace length
	mu    sync.Mutex
	fill  atomic.Pointer[memoFill]
}

// memoFill is a compressedTrace's filled prefix: events[i] is event i's
// encoding and the end of its payload in arena (the payload starts where
// event i-1's ends).
type memoFill struct {
	events []memoEvent
	arena  []byte
}

// memoChunk is how many events one fill compresses ahead.
const memoChunk = 256

// maxMemoEvents bounds the memoized trace length so that every payload
// offset fits a uint32.
const maxMemoEvents = math.MaxUint32 / block.Size

type memoEvent struct {
	end uint32
	enc compress.Encoding
}

func newCompressedTrace(codec string, n int) *compressedTrace {
	ct := &compressedTrace{codec: codec, n: n}
	ct.fill.Store(&memoFill{events: make([]memoEvent, 0, n)})
	return ct
}

// extend returns a fill covering event i, compressing with ctrl (whose
// codec is ct's) the events no run has reached yet.
func (ct *compressedTrace) extend(ctrl *core.Controller, events []trace.Event, i int) *memoFill {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	f := ct.fill.Load()
	if i < len(f.events) {
		return f // another run got there first
	}
	next := &memoFill{events: f.events, arena: f.arena}
	for j := len(f.events); j < min(i+memoChunk, ct.n); j++ {
		res, _ := ctrl.Compress(&events[j].Data)
		if res.Encoding != compress.EncUncompressed {
			next.arena = append(next.arena, res.Data...)
		}
		next.events = append(next.events, memoEvent{end: uint32(len(next.arena)), enc: res.Encoding})
	}
	ct.fill.Store(next)
	return next
}

// replayer is one run's reader of a compressedTrace.
type replayer struct {
	ct   *compressedTrace // nil: every write goes through Controller.Write
	fill *memoFill        // the latest fill this run has seen
}

// newReplayer returns ctrl's reader of the trace's memo in m (nil for
// none). A controller that does not compress, or a trace too long for
// 32-bit payload offsets, writes through Controller.Write.
func newReplayer(m *Memo, ctrl *core.Controller, events []trace.Event) (replayer, error) {
	codec, ok := ctrl.Codec()
	if !ok || len(events) > maxMemoEvents {
		return replayer{}, nil
	}
	ct, err := m.forCodec(codec, len(events))
	if err != nil {
		return replayer{}, err
	}
	return replayer{ct: ct, fill: ct.fill.Load()}, nil
}

// write replays trace event i (folded onto logical address addr) through
// ctrl with its memoized compression.
func (r *replayer) write(ctrl *core.Controller, events []trace.Event, i, addr int) {
	data := &events[i].Data
	if r.ct == nil {
		ctrl.Write(addr, data)
		return
	}
	if i >= len(r.fill.events) {
		r.fill = r.ct.extend(ctrl, events, i)
	}
	var start uint32
	if i > 0 {
		start = r.fill.events[i-1].end
	}
	ev := r.fill.events[i]
	payload := r.fill.arena[start:ev.end]
	if ev.enc == compress.EncUncompressed {
		payload = data[:]
	}
	ctrl.WriteCompressed(addr, data, compress.Result{Encoding: ev.enc, Data: payload})
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
