package experiments

import (
	"cmp"
	"context"
	"runtime"
	"slices"

	"pcmcomp/internal/core"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/scheme"
	"pcmcomp/internal/trace"
)

// LifetimeTrace is one trace of a LifetimeRuns set, with the Memo through
// which its runs share its compression (nil: the set makes one). With
// Events nil, the trace's reference run builds them with Generate.
type LifetimeTrace struct {
	Events   []trace.Event
	Memo     *lifetime.Memo
	Generate func() ([]trace.Event, error)
}

// Row is one lifetime run on every trace of a set: a scheme spec, built
// with scheme.Spec.ControllerConfig, and for the two ablations the grammar
// cannot write (the SC heuristic off, the Fig 8 threshold grid) a named
// core tweak of that config.
type Row struct {
	Spec  scheme.Spec
	tweak func(*core.Config)
}

// row is the Row of a static spec string.
func row(spec string) Row {
	sp, err := scheme.Parse(spec)
	if err != nil {
		panic(err)
	}
	return Row{Spec: sp}
}

// LifetimeRun is one run's outcome. A run cut by the context keeps its
// partial Result beside the context's error; a run that never started has
// a zero Result and, in Err, the context's error or its reference's.
type LifetimeRun struct {
	lifetime.Result
	Err error
}

// LifetimeRuns is a set of lifetime runs, every Row on every trace: the
// one runner behind the lifetime tables, pcmd lifetime jobs and
// cmd/lifetime.
type LifetimeRuns struct {
	Traces []LifetimeTrace
	// Rows[0] is the reference: a trace's other rows start once its
	// reference run has succeeded.
	Rows   []Row
	Memory pcm.Config // the substrate of every controller
	// MaxDemandWrites caps every run (0 = none); a non-zero CapFactor
	// tightens the other rows' cap to CapFactor times their reference's
	// demand writes.
	MaxDemandWrites, CapFactor uint64
	FailureFraction            float64 // 0 = the paper's 0.5
	Width                      int     // runs in flight (0 = CPU count)
	// OnProgress, when non-nil, gets a run's demand writes at the cadence
	// of lifetime.Config.OnProgress, on the run's goroutine.
	OnProgress func(trace, row int, demandWrites uint64)
}

// Run performs the set and returns runs[trace][row], with the error of
// the lowest failed (trace, row) in that order. Up to Width single runs
// are in flight at once, so a heavy trace's rows spread over the workers:
// a free slot takes a ready row, the highest row index first (in the
// tables, the longest-lived system), before the next trace's reference.
// A trace, with its Memo, is dropped after its last run, so about Width+1
// generated traces are live at once. Runs are internally seeded, so the
// results are the same at any width. Every run is attempted except the
// rows of a trace whose reference failed, and none starts once ctx is
// done. A run's panic cancels the others and, once they have returned,
// is raised again on the caller's goroutine, where a recover contains it.
func (s LifetimeRuns) Run(ctx context.Context) ([][]LifetimeRun, error) {
	ctx, cancel := context.WithCancel(ctx) // canceled by a run's panic
	defer cancel()
	traces := slices.Clone(s.Traces) // the runner's hold on each trace
	out := make([][]LifetimeRun, len(traces))
	left := make([]int, len(traces))    // each trace's runs not yet finished
	caps := make([]uint64, len(traces)) // each trace's cap, tightened once its reference is done
	type run struct{ t, r int }
	var ready []run // the runs that may start: the highest row index first, then the lowest trace
	for t := range out {
		out[t], left[t], caps[t] = make([]LifetimeRun, len(s.Rows)), len(s.Rows), s.MaxDemandWrites
		traces[t].Memo = cmp.Or(traces[t].Memo, &lifetime.Memo{})
		if len(s.Rows) > 0 {
			ready = append(ready, run{t, 0})
		}
	}
	// exec performs x on its own goroutine. What a reference run stores
	// for its trace's other rows reaches them through the finished channel.
	exec := func(x run) (res lifetime.Result, err error) {
		tr := &traces[x.t]
		if tr.Events == nil {
			if tr.Events, err = tr.Generate(); err != nil {
				return res, err
			}
		}
		ctrl, err := s.Rows[x.r].Spec.ControllerConfig(s.Memory)
		if err != nil {
			return res, err
		}
		if tweak := s.Rows[x.r].tweak; tweak != nil {
			tweak(&ctrl)
		}
		cfg := lifetime.DefaultConfig(ctrl)
		cfg.MaxDemandWrites, cfg.Memo = caps[x.t], tr.Memo
		cfg.FailureFraction = cmp.Or(s.FailureFraction, cfg.FailureFraction)
		if s.OnProgress != nil {
			cfg.OnProgress = func(dw uint64) { s.OnProgress(x.t, x.r, dw) }
		}
		return lifetime.RunContext(ctx, cfg, tr.Events)
	}

	width := cmp.Or(max(s.Width, 0), runtime.NumCPU())
	type done struct {
		run
		LifetimeRun
		panic any // what the run panicked with, if it did
	}
	finished := make(chan done)
	var panicked any
	// This goroutine alone schedules: it keeps up to width runs in flight
	// and books each one as it finishes.
	for running := 0; ; running-- {
		for ; running < width && len(ready) > 0 && ctx.Err() == nil; running++ {
			x := ready[0]
			ready = ready[1:]
			go func() {
				d := done{run: x}
				defer func() {
					d.panic = recover()
					finished <- d
				}()
				d.Result, d.Err = exec(x)
			}()
		}
		if running == 0 {
			break
		}
		d := <-finished
		if d.panic != nil {
			panicked = d.panic
			cancel()
			continue
		}
		t := d.t
		out[t][d.r] = d.LifetimeRun
		left[t]--
		if d.r == 0 {
			// The cap rule: the set's cap, tightened to CapFactor times
			// the reference's demand writes.
			if c := d.DemandWrites * s.CapFactor; c > 0 && (c < caps[t] || caps[t] == 0) {
				caps[t] = c
			}
			for r := 1; r < len(s.Rows); r++ {
				if d.Err != nil {
					out[t][r].Err = d.Err
					left[t]--
				} else {
					ready = append(ready, run{t, r})
				}
			}
			slices.SortFunc(ready, func(a, b run) int { return cmp.Or(b.r-a.r, a.t-b.t) })
		}
		if left[t] == 0 {
			traces[t] = LifetimeTrace{} // the trace's last run is done
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	for _, x := range ready { // never started, nor, for a reference, its rows
		for r := range out[x.t] {
			if r == x.r || x.r == 0 {
				out[x.t][r].Err = ctx.Err()
			}
		}
	}
	var first error
	for t := range out {
		for _, lr := range out[t] {
			first = cmp.Or(first, lr.Err)
		}
	}
	return out, first
}
