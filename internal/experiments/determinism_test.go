package experiments

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"pcmcomp/internal/config"
	"pcmcomp/internal/core"
	"pcmcomp/internal/stats"
	"pcmcomp/internal/trace"
)

// TestLifetimeDeterministicAcrossParallelism proves the claim in
// LifetimeRuns.Run's contract: per-app runs are internally seeded and share no
// mutable state, so the same-seed experiment tables are bit-identical at
// any worker width. It sweeps the Concurrency knob over serial, a small
// pool, and the full CPU count for Fig 10 and for an ablation (whose three
// apps fan out the same way), comparing every cell as raw IEEE-754 bits.
func TestLifetimeDeterministicAcrossParallelism(t *testing.T) {
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	base := LifetimeOptions{
		Scale: config.ScaleQuick,
		Seed:  11,
		// Cap the runs: determinism does not need full lifetimes, and the
		// cap keeps the sweeps fast.
		MaxDemandWrites: 20000,
	}
	for _, tc := range []struct {
		name  string
		build func(LifetimeOptions) (*stats.Table, error)
	}{
		{"fig10", Fig10Lifetimes},
		{"ablation-sc", AblationSCHeuristic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(width int) *stats.Table {
				o := base
				o.Concurrency = width
				tb, err := tc.build(o)
				if err != nil {
					t.Fatalf("width %d: %v", width, err)
				}
				return tb
			}
			ref := run(widths[0])
			for _, w := range widths[1:] {
				got := run(w)
				if got.Rows() != ref.Rows() {
					t.Fatalf("width %d: %d rows, width %d has %d", w, got.Rows(), widths[0], ref.Rows())
				}
				for r := 0; r < ref.Rows(); r++ {
					if got.Label(r) != ref.Label(r) {
						t.Fatalf("width %d row %d: label %q, want %q", w, r, got.Label(r), ref.Label(r))
					}
					for c := range ref.Columns {
						gb := math.Float64bits(got.Value(r, c))
						rb := math.Float64bits(ref.Value(r, c))
						if gb != rb {
							t.Errorf("width %d: %s[%s] = %v (bits %016x), width %d got %v (bits %016x)",
								w, got.Label(r), ref.Columns[c], got.Value(r, c), gb,
								widths[0], ref.Value(r, c), rb)
						}
					}
				}
			}
		})
	}
}

// TestLifetimeRunsErrorsAcrossParallelism pins LifetimeRuns.Run's error
// rule: at any worker width the error returned is the one of the lowest
// (trace, row) in table order, the reference before the other rows, even
// though the scheduler starts the highest row first; and a trace whose
// reference fails starts none of its other rows.
func TestLifetimeRunsErrorsAcrossParallelism(t *testing.T) {
	base := LifetimeOptions{Scale: config.ScaleQuick, Seed: 3, MaxDemandWrites: 2000}
	var tweaked atomic.Int32
	compWF := row("comp+wf").Spec
	counted := Row{Spec: compWF, tweak: func(*core.Config) { tweaked.Add(1) }}
	badT1 := Row{Spec: compWF, tweak: func(c *core.Config) { c.Threshold1 = 0 }}
	badT2 := Row{Spec: compWF, tweak: func(c *core.Config) { c.Threshold2 = 0 }}
	_, errApp := AppTrace("bogus", base.Scale, base.Seed).Generate()
	ctrl, err := badT2.Spec.ControllerConfig(base.Scale.Substrate(base.Seed))
	if err != nil {
		t.Fatal(err)
	}
	badT2.tweak(&ctrl)
	_, errT2 := core.New(ctrl)
	if errApp == nil || errT2 == nil {
		t.Fatal("the failing inputs do not fail")
	}
	for _, tc := range []struct {
		name    string
		apps    []string
		rows    []Row
		want    error
		tweaked int32 // calls of counted's tweak: one per app whose Baseline ran
	}{
		// milc's second row precedes bogus's Baseline in table order.
		{"variant before later baseline", []string{"milc", "bogus", "gcc"}, []Row{counted, badT2, badT1}, errT2, 2},
		{"unknown app first", []string{"bogus", "milc"}, []Row{badT1, counted}, errApp, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, width := range []int{1, 2, 4} {
				tweaked.Store(0)
				o := base
				o.Concurrency = width
				_, err := o.runSet(tc.apps, tc.rows).Run(context.Background())
				if err == nil || err.Error() != tc.want.Error() {
					t.Fatalf("width %d: error %v, want %v", width, err, tc.want)
				}
				if got := tweaked.Load(); got != tc.tweaked {
					t.Fatalf("width %d: %d runs of the counted variant, want %d", width, got, tc.tweaked)
				}
			}
		})
	}
}

// TestLifetimeRunsJobShape pins the error of a job-shaped run set (one
// handed-in trace, width 1, no cap factor) whose second row cannot be
// built: it is that row's error, the one a loop running the rows one
// after another returns, and the rows after it still run.
func TestLifetimeRunsJobShape(t *testing.T) {
	o := LifetimeOptions{Scale: config.ScaleQuick, Seed: 1}
	events, err := AppTrace("milc", o.Scale, o.Seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	bad := Row{Spec: row("comp").Spec}
	bad.Spec.ECC = "bogus"
	_, want := bad.Spec.ControllerConfig(o.Scale.Substrate(o.Seed))
	if want == nil {
		t.Fatal("the bad row builds")
	}
	set := LifetimeRuns{
		Traces:          []LifetimeTrace{{Events: events}},
		Rows:            []Row{row("baseline"), bad, row("comp+wf")},
		Memory:          o.Scale.Substrate(o.Seed),
		MaxDemandWrites: 4096,
		Width:           1,
	}
	runs, err := set.Run(context.Background())
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("error %v, want %v", err, want)
	}
	if r := runs[0]; r[0].Err != nil || r[2].Err != nil || r[2].DemandWrites != 4096 {
		t.Fatalf("the good rows: %+v, %+v", r[0], r[2])
	}
}

// TestLifetimeRunsPanicReachesCaller pins the panic rule: a run's panic,
// here a row's tweak, comes out of Run on the caller's goroutine, where a
// recover can contain it (a pcmd worker fails only the job that panicked).
// Were it raised on the run's own goroutine, it would end the test binary.
func TestLifetimeRunsPanicReachesCaller(t *testing.T) {
	o := LifetimeOptions{Scale: config.ScaleQuick, Seed: 1, MaxDemandWrites: 4096}
	boom := Row{Spec: row("comp").Spec, tweak: func(*core.Config) { panic("boom") }}
	for _, width := range []int{1, 2} {
		o.Concurrency = width
		func() {
			defer func() {
				if v := recover(); v != "boom" {
					t.Fatalf("width %d: recovered %v, want the row's panic", width, v)
				}
			}()
			o.runSet([]string{"milc", "gcc"}, []Row{row("comp+wf"), boom}).Run(context.Background())
			t.Fatalf("width %d: Run returned", width)
		}()
	}
}

// TestLifetimeRunsStopOnCancel pins cancellation: once the context is
// canceled no further run starts, the cut run keeps its partial result,
// a trace whose reference never started is never generated, and Run
// returns the context's error.
func TestLifetimeRunsStopOnCancel(t *testing.T) {
	o := LifetimeOptions{Scale: config.ScaleQuick, Seed: 1}
	events, err := AppTrace("gcc", o.Scale, o.Seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started [3]atomic.Bool // rows that reported progress
	unused := LifetimeTrace{Generate: func() ([]trace.Event, error) {
		t.Error("a trace generated after the cancel")
		return events, nil
	}}
	set := LifetimeRuns{
		Traces: []LifetimeTrace{{Events: events}, unused},
		Rows:   []Row{row("baseline"), row("comp"), row("comp+wf")},
		Memory: o.Scale.Substrate(o.Seed),
		Width:  1,
		OnProgress: func(_, row int, dw uint64) {
			if row == 2 && dw == 1024 {
				cancel() // the first row after the reference to start
			}
			started[row].Store(true)
		},
	}
	runs, err := set.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	r := runs[0]
	if r[0].Err != nil || !r[0].Failed {
		t.Fatalf("reference %+v, want a finished run", r[0])
	}
	if !errors.Is(r[2].Err, context.Canceled) || r[2].DemandWrites != 1024 {
		t.Fatalf("cut row: %d demand writes, error %v; want 1024 and context.Canceled", r[2].DemandWrites, r[2].Err)
	}
	if !errors.Is(r[1].Err, context.Canceled) || r[1].Replays != 0 {
		t.Fatalf("unstarted row: %+v, want a zero result and context.Canceled", r[1])
	}
	for i, r := range runs[1] {
		if !errors.Is(r.Err, context.Canceled) || r.Replays != 0 {
			t.Fatalf("row %d of the unstarted trace: %+v, want a zero result and context.Canceled", i, r)
		}
	}
	if started[1].Load() {
		t.Fatal("a row started after the cancel")
	}
}
