package lifetime

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"pcmcomp/internal/core"
	"pcmcomp/internal/scheme"
	"pcmcomp/internal/trace"
)

// referenceRun is RunContext without the compression memo: the same replay
// loop, stop checks and snapshot, with every demand write going through
// Controller.Write. The memoized run must reproduce it bit for bit.
func referenceRun(t *testing.T, cfg Config, events []trace.Event) Result {
	t.Helper()
	ctrl, err := core.New(cfg.Controller)
	if err != nil {
		t.Fatal(err)
	}
	logical := ctrl.LogicalLines()
	var res Result
	stop := func(failed bool) Result {
		res.Failed = failed
		res.FinalDeadFraction = ctrl.DeadFraction()
		res.Stats = ctrl.Stats()
		return res
	}
	for {
		res.Replays++
		for i := range events {
			ctrl.Write(events[i].Addr%logical, &events[i].Data)
			res.DemandWrites++
			if res.DemandWrites%uint64(cfg.CheckEvery) == 0 && ctrl.DeadFraction() >= cfg.FailureFraction {
				return stop(true)
			}
			if cfg.MaxDemandWrites > 0 && res.DemandWrites >= cfg.MaxDemandWrites {
				return stop(false)
			}
		}
	}
}

// diffBits reports the first field path at which got and want differ,
// comparing integers by value and floats by their IEEE-754 bit patterns.
// It walks unexported fields too, so every core.Stats counter and the
// running-statistics internals are covered without naming them.
func diffBits(path string, got, want reflect.Value) string {
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			name := path + "." + got.Type().Field(i).Name
			if d := diffBits(name, got.Field(i), want.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			return path
		}
	case reflect.Int, reflect.Int64:
		if got.Int() != want.Int() {
			return path
		}
	case reflect.Uint64:
		if got.Uint() != want.Uint() {
			return path
		}
	case reflect.Bool:
		if got.Bool() != want.Bool() {
			return path
		}
	default:
		return path + " (unhandled kind " + got.Kind().String() + ")"
	}
	return ""
}

// TestMemoizedRunMatchesWrite pins the compression memo: a lifetime run
// must produce exactly the Result of a replay that recompresses every
// write. The low-endurance substrate drives lines through death (and,
// with resurrection, back), with Start-Gap moves recompressing what they
// copy; the composed schemes vary the codec configuration the memo must
// take from the controller.
func TestMemoizedRunMatchesWrite(t *testing.T) {
	tr := append(makeTrace(t, "lbm", 128, 700), makeTrace(t, "milc", 128, 700)...)
	specs := []string{
		"baseline", "comp", "comp+w", "comp+wf",
		"comp=bdi+fvc,wl=startgap+intraline,res=on", // FVC dict, FPC disabled
		"comp=fpc+fvc,enc=fnw,wl=startgap",          // BDI disabled, Flip-N-Write
		"comp=bdi+fpc,enc=coset4,wl=startgap+intraline,res=on",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			sp, err := scheme.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctrlCfg, err := sp.ControllerConfig(smallSubstrate(300))
			if err != nil {
				t.Fatal(err)
			}
			ctrlCfg.StartGapPsi = 20
			cfg := DefaultConfig(ctrlCfg)
			cfg.CheckEvery = 64

			for _, capped := range []bool{false, true} {
				if capped {
					cfg.MaxDemandWrites = uint64(len(tr) / 3)
				}
				got, err := Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceRun(t, cfg, tr)
				if d := diffBits("Result", reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
					t.Fatalf("capped=%v: memoized run differs at %s:\n got %+v\nwant %+v", capped, d, got, want)
				}
				if capped {
					if got.Replays != 1 || got.DemandWrites != cfg.MaxDemandWrites {
						t.Fatalf("capped run: replays=%d writes=%d, want 1 and %d", got.Replays, got.DemandWrites, cfg.MaxDemandWrites)
					}
					continue
				}
				// The comparison only means something if the run reaches
				// the states the memo must replay through.
				s := got.Stats
				if !got.Failed || got.Replays < 2 || s.GapMovements == 0 || s.DroppedWrites == 0 {
					t.Fatalf("workload too gentle: failed=%v replays=%d gap moves=%d dropped=%d",
						got.Failed, got.Replays, s.GapMovements, s.DroppedWrites)
				}
				if sp.Res && s.Resurrections == 0 {
					t.Fatalf("resurrecting scheme saw no resurrections")
				}
			}
		})
	}
}

// TestReplayAfterFirstPassAllocs guards the memoized replay: once the first
// pass has filled the memo, a whole further pass over the trace allocates
// nothing. The controller is warmed first with plain writes until the
// Start-Gap gap has swept every row, so lazily materialized lines and
// per-line payload buffers are in place. Endurance is high enough that no
// cell wears out (new-fault bookkeeping is the write path's one permitted
// allocation).
func TestReplayAfterFirstPassAllocs(t *testing.T) {
	tr := makeTrace(t, "gcc", 128, 1000)
	ctrlCfg := core.DefaultConfig(core.CompWF, smallSubstrate(1e9))
	ctrlCfg.StartGapPsi = 10
	ctrl, err := core.New(DefaultConfig(ctrlCfg).Controller)
	if err != nil {
		t.Fatal(err)
	}
	logical := ctrl.LogicalLines()
	for pass := 0; pass < 10; pass++ {
		for i := range tr {
			ctrl.Write(tr[i].Addr%logical, &tr[i].Data)
		}
	}

	rp, err := newReplayer(nil, ctrl, tr)
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		for i := range tr {
			rp.write(ctrl, tr, i, tr[i].Addr%logical)
		}
	}
	pass()
	if n := len(rp.fill.events); n != len(tr) {
		t.Fatalf("first pass memoized %d of %d events", n, len(tr))
	}
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Fatalf("replay after the first pass allocates %.0f times, want 0", allocs)
	}
}

// TestSharedMemoConcurrentRunsMatch pins the shared memo: schemes run
// concurrently over one trace through one Memo must each return exactly
// the Result of the same run alone, with no Memo. Three of the four
// schemes share the BDI+FPC codec and so fill one compressed trace
// together; the FVC scheme fills a second. Capped below one pass, the
// runs stop mid-fill and must still match.
func TestSharedMemoConcurrentRunsMatch(t *testing.T) {
	tr := append(makeTrace(t, "lbm", 128, 700), makeTrace(t, "milc", 128, 700)...)
	specs := []string{
		"comp+wf", "comp",
		"comp=bdi+fpc,enc=coset4,wl=startgap+intraline,res=on",
		"comp=bdi+fpc+fvc,wl=startgap",
	}
	for _, capped := range []bool{false, true} {
		cfgs := make([]Config, len(specs))
		for i, spec := range specs {
			sp, err := scheme.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctrlCfg, err := sp.ControllerConfig(smallSubstrate(300))
			if err != nil {
				t.Fatal(err)
			}
			ctrlCfg.StartGapPsi = 20
			cfgs[i] = DefaultConfig(ctrlCfg)
			cfgs[i].CheckEvery = 64
			if capped {
				cfgs[i].MaxDemandWrites = uint64(len(tr) / 3)
			}
		}
		memo := &Memo{}
		got := make([]Result, len(specs))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i := range cfgs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := cfgs[i]
				cfg.Memo = memo
				got[i], errs[i] = Run(cfg, tr)
			}(i)
		}
		wg.Wait()
		for i, cfg := range cfgs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			want, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffBits("Result", reflect.ValueOf(got[i]), reflect.ValueOf(want)); d != "" {
				t.Fatalf("capped=%v %s: shared-memo run differs at %s:\n got %+v\nwant %+v", capped, specs[i], d, got[i], want)
			}
			if capped && got[i].Replays != 1 {
				t.Fatalf("capped run of %s replayed %d passes", specs[i], got[i].Replays)
			}
		}
		if len(memo.traces) != 2 {
			t.Fatalf("capped=%v: memo holds %d codecs, want 2", capped, len(memo.traces))
		}
		for _, ct := range memo.traces {
			n := len(ct.fill.Load().events)
			if capped && n >= len(tr) {
				t.Fatalf("a run capped at %d writes filled all %d events", len(tr)/3, n)
			}
			if !capped && n != len(tr) {
				t.Fatalf("memo filled %d of %d events", n, len(tr))
			}
		}
	}
}

// TestMemoRefusesAnotherTrace checks that a Memo filled for one trace
// refuses a run over a trace of another length instead of replaying the
// wrong compression.
func TestMemoRefusesAnotherTrace(t *testing.T) {
	tr := makeTrace(t, "milc", 128, 300)
	cfg := DefaultConfig(core.DefaultConfig(core.CompWF, smallSubstrate(300)))
	cfg.MaxDemandWrites = 100
	cfg.Memo = &Memo{}
	if _, err := Run(cfg, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, tr[:200]); err == nil {
		t.Fatal("a memo of a 300-event trace replayed a 200-event one")
	}
}
