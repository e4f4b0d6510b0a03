package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pcmcomp/internal/compress"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

// The golden determinism suite pins the per-write kernel bit-for-bit: it
// replays a fixed-seed synthetic trace through each of the paper's four
// systems and compares an exhaustive digest of every Outcome plus the final
// controller counters against committed snapshots. Any change to the write
// pipeline — compression candidate order, placement, differential-write
// accounting, wear-leveling interleaving — shows up as a digest mismatch.
//
// Regenerate after an intentional behavior change with
//
//	go test ./internal/core -run TestGoldenReplay -update
//
// and inspect the diff of testdata/golden_core.json before committing.

var updateGolden = flag.Bool("update", false, "rewrite golden files with current outputs")

const (
	goldenSeed   = 20170601 // DSN'17
	goldenWrites = 24000
	// The replay is two-phase: a low-compressibility first half (full-size
	// windows wear lines out and kill them) followed by a highly
	// compressible second half (tiny windows let Comp+WF resurrect them).
	goldenKillApp   = "lbm"
	goldenReviveApp = "milc"
)

// goldenMemory is a deliberately tiny, low-endurance substrate so that the
// replay drives lines through death (and, under Comp+WF, resurrection)
// within a unit-test budget.
func goldenMemory() pcm.Config {
	return pcm.Config{
		Geometry: pcm.Geometry{
			Channels: 1, DIMMsPerChannel: 1, RanksPerDIMM: 1,
			BanksPerRank: 2, LinesPerBank: 17,
		},
		Endurance: pcm.Endurance{Mean: 120, CoV: 0.15},
		Seed:      goldenSeed,
	}
}

func goldenTrace(t *testing.T, app string) []trace.Event {
	t.Helper()
	prof, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 64, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	return gen.GenerateTrace(4096)
}

// goldenRecord is the committed per-system digest. Float-valued statistics
// are stored as IEEE-754 bit patterns so the comparison is exact, not
// epsilon-based.
type goldenRecord struct {
	System       string `json:"system"`
	Writes       int    `json:"writes"`
	OutcomeHash  string `json:"outcomeHash"`
	Stored       int    `json:"stored"`
	Compressed   int    `json:"compressed"`
	Died         int    `json:"died"`
	Resurrected  int    `json:"resurrected"`
	FlipsNeeded  int    `json:"flipsNeeded"`
	FlipsWritten int    `json:"flipsWritten"`
	StuckFlips   int    `json:"stuckFlips"`
	NewFaults    int    `json:"newFaults"`
	SizeSum      int    `json:"sizeSum"`
	WindowSum    int    `json:"windowSum"`
	DeadLines    int    `json:"deadLines"`

	StatWrites          uint64 `json:"statWrites"`
	StatDropped         uint64 `json:"statDropped"`
	StatCompressed      uint64 `json:"statCompressed"`
	StatHeuristicRaw    uint64 `json:"statHeuristicRaw"`
	StatBitFlips        uint64 `json:"statBitFlips"`
	StatSetPulses       uint64 `json:"statSetPulses"`
	StatResetPulses     uint64 `json:"statResetPulses"`
	StatNewFaults       uint64 `json:"statNewFaults"`
	StatUncorrectable   uint64 `json:"statUncorrectable"`
	StatGapMovements    uint64 `json:"statGapMovements"`
	StatRotations       uint64 `json:"statRotations"`
	StatResurrections   uint64 `json:"statResurrections"`
	StatStartPtrUpdates uint64 `json:"statStartPtrUpdates"`
	StatEncUpdates      uint64 `json:"statEncUpdates"`
	DeathCellsN         int64  `json:"deathCellsN"`
	DeathCellsMeanBits  uint64 `json:"deathCellsMeanBits"`
	DeathCellsMinBits   uint64 `json:"deathCellsMinBits"`
	DeathCellsMaxBits   uint64 `json:"deathCellsMaxBits"`
}

// precompute returns each event's compression as ctrl computes it, copied
// out of the controller's scratch. A controller that does not compress gets
// zero Results, which WriteCompressed must ignore.
func precompute(ctrl *Controller, events []trace.Event) []compress.Result {
	out := make([]compress.Result, len(events))
	for i := range events {
		if res, ok := ctrl.Compress(&events[i].Data); ok {
			out[i] = compress.Result{Encoding: res.Encoding, Data: append([]byte(nil), res.Data...)}
		}
	}
	return out
}

// replayGolden runs the fixed two-phase trace through a fresh controller
// and digests every outcome. With memoized set, every demand write goes
// through WriteCompressed with its compression precomputed up front, the
// way the lifetime replay feeds later passes.
func replayGolden(t *testing.T, system SystemKind, kill, revive []trace.Event, memoized bool) goldenRecord {
	t.Helper()
	cfg := DefaultConfig(system, goldenMemory())
	// A short gap-movement period gives Comp+WF frequent retry opportunities
	// on dead lines within the write budget.
	cfg.StartGapPsi = 20
	ctrl := mustController(t, cfg)
	logical := ctrl.LogicalLines()
	var killRes, reviveRes []compress.Result
	if memoized {
		killRes, reviveRes = precompute(ctrl, kill), precompute(ctrl, revive)
	}

	h := fnv.New64a()
	var buf [8]byte
	hashInt := func(v int) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	hashBool := func(v bool) {
		if v {
			hashInt(1)
		} else {
			hashInt(0)
		}
	}

	rec := goldenRecord{System: system.String(), Writes: goldenWrites}
	for w := 0; w < goldenWrites; w++ {
		events, results := kill, killRes
		if w >= goldenWrites/2 {
			events, results = revive, reviveRes
		}
		ev := &events[w%len(events)]
		var out Outcome
		if memoized {
			out = ctrl.WriteCompressed(ev.Addr%logical, &ev.Data, results[w%len(events)])
		} else {
			out = ctrl.Write(ev.Addr%logical, &ev.Data)
		}

		hashBool(out.Stored)
		hashBool(out.Compressed)
		hashInt(out.Size)
		hashInt(out.WindowStart)
		hashInt(out.FlipsNeeded)
		hashInt(out.FlipsWritten)
		hashInt(out.StuckFlips)
		hashInt(out.NewFaults)
		hashBool(out.Died)
		hashBool(out.Resurrected)

		if out.Stored {
			rec.Stored++
			rec.SizeSum += out.Size
			rec.WindowSum += out.WindowStart
		}
		if out.Compressed {
			rec.Compressed++
		}
		if out.Died {
			rec.Died++
		}
		if out.Resurrected {
			rec.Resurrected++
		}
		rec.FlipsNeeded += out.FlipsNeeded
		rec.FlipsWritten += out.FlipsWritten
		rec.StuckFlips += out.StuckFlips
		rec.NewFaults += out.NewFaults
	}
	rec.OutcomeHash = fmt.Sprintf("%016x", h.Sum64())
	rec.DeadLines = ctrl.DeadLines()

	s := ctrl.Stats()
	rec.StatWrites = s.Writes
	rec.StatDropped = s.DroppedWrites
	rec.StatCompressed = s.CompressedWrites
	rec.StatHeuristicRaw = s.HeuristicRawWrites
	rec.StatBitFlips = s.BitFlips
	rec.StatSetPulses = s.SetPulses
	rec.StatResetPulses = s.ResetPulses
	rec.StatNewFaults = s.NewFaults
	rec.StatUncorrectable = s.UncorrectableErrors
	rec.StatGapMovements = s.GapMovements
	rec.StatRotations = s.Rotations
	rec.StatResurrections = s.Resurrections
	rec.StatStartPtrUpdates = s.StartPointerUpdates
	rec.StatEncUpdates = s.EncodingUpdates
	rec.DeathCellsN = s.DeathFaultCells.N()
	rec.DeathCellsMeanBits = math.Float64bits(s.DeathFaultCells.Mean())
	rec.DeathCellsMinBits = math.Float64bits(s.DeathFaultCells.Min())
	rec.DeathCellsMaxBits = math.Float64bits(s.DeathFaultCells.Max())
	return rec
}

func goldenPath() string { return filepath.Join("testdata", "golden_core.json") }

func loadGolden(t *testing.T) map[string]goldenRecord {
	t.Helper()
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	var m map[string]goldenRecord
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	return m
}

// TestGoldenReplay asserts that the kernel reproduces the committed digests
// bit-for-bit for all four systems, both through Write and through
// WriteCompressed fed precomputed compression results.
func TestGoldenReplay(t *testing.T) {
	kill := goldenTrace(t, goldenKillApp)
	revive := goldenTrace(t, goldenReviveApp)
	systems := []SystemKind{Baseline, Comp, CompW, CompWF}

	got := make(map[string]goldenRecord, len(systems))
	for _, sys := range systems {
		got[sys.String()] = replayGolden(t, sys, kill, revive, false)
	}

	// The suite is only a safety net if it reaches the interesting states.
	// Resurrections ride on Start-Gap moves, so they surface in the stats
	// counter, not in demand-write Outcomes.
	if rec := got[CompWF.String()]; rec.Died == 0 || rec.StatResurrections == 0 {
		t.Fatalf("golden workload too gentle: Comp+WF died=%d resurrections=%d; retune goldenMemory",
			rec.Died, rec.StatResurrections)
	}
	if rec := got[Baseline.String()]; rec.Died == 0 {
		t.Fatalf("golden workload too gentle: Baseline saw no deaths")
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenPath())
		return
	}

	want := loadGolden(t)
	for _, sys := range systems {
		name := sys.String()
		if got[name] != want[name] {
			t.Errorf("%s diverged from golden:\n got %+v\nwant %+v", name, got[name], want[name])
		}
		if rec := replayGolden(t, sys, kill, revive, true); rec != want[name] {
			t.Errorf("%s via WriteCompressed diverged from golden:\n got %+v\nwant %+v", name, rec, want[name])
		}
	}
}

// TestGoldenReplayAcrossGOMAXPROCS re-runs the Comp+WF replay under
// GOMAXPROCS=1 and asserts the digest is identical to the committed golden:
// the kernel must not depend on scheduler parallelism in any way.
func TestGoldenReplayAcrossGOMAXPROCS(t *testing.T) {
	if *updateGolden {
		t.Skip("golden update run")
	}
	kill := goldenTrace(t, goldenKillApp)
	revive := goldenTrace(t, goldenReviveApp)
	want := loadGolden(t)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rec := replayGolden(t, CompWF, kill, revive, false)
	if rec != want[CompWF.String()] {
		t.Errorf("Comp+WF digest differs under GOMAXPROCS=1:\n got %+v\nwant %+v",
			rec, want[CompWF.String()])
	}
}
