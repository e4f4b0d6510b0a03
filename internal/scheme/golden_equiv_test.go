package scheme

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pcmcomp/internal/core"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

// The scheme registry's central promise is that the paper's four systems
// are *presets*, not privileged code paths: resolving "baseline" /"comp"/
// "comp+w"/"comp+wf" through Parse + ControllerConfig and replaying the
// core package's golden trace must reproduce the committed golden digests
// bit-for-bit. This test is a port of core's replayGolden that runs on the
// capability-flag path (System=0, Label set) and compares against the same
// committed file, so any drift between the registry composition and the
// SystemKind presets fails loudly.

const (
	goldenSeed      = 20170601
	goldenWrites    = 24000
	goldenKillApp   = "lbm"
	goldenReviveApp = "milc"
)

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

// goldenRecord mirrors core's committed digest schema field for field.
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

// replayGoldenConfig is core's replayGolden driven by an already-resolved
// controller config instead of a SystemKind.
func replayGoldenConfig(t *testing.T, system string, cfg core.Config, kill, revive []trace.Event) goldenRecord {
	t.Helper()
	cfg.StartGapPsi = 20
	ctrl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logical := ctrl.LogicalLines()

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

	rec := goldenRecord{System: system, Writes: goldenWrites}
	for w := 0; w < goldenWrites; w++ {
		ev := &kill[w%len(kill)]
		if w >= goldenWrites/2 {
			ev = &revive[w%len(revive)]
		}
		out := ctrl.Write(ev.Addr%logical, &ev.Data)

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

// TestPresetsMatchCoreGoldens replays the golden trace through each preset
// resolved via the registry and asserts the digests equal the snapshots
// committed by internal/core's SystemKind-driven suite.
func TestPresetsMatchCoreGoldens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_core.json"))
	if err != nil {
		t.Fatalf("read core golden file: %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse core golden file: %v", err)
	}

	kill := goldenTrace(t, goldenKillApp)
	revive := goldenTrace(t, goldenReviveApp)

	systems := map[string]core.SystemKind{
		"baseline": core.Baseline, "comp": core.Comp, "comp+w": core.CompW, "comp+wf": core.CompWF,
	}
	for _, p := range Presets() {
		sys, ok := systems[p.Name]
		if !ok {
			t.Fatalf("preset %q has no SystemKind", p.Name)
		}
		sp, err := Parse(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sp.ControllerConfig(goldenMemory())
		if err != nil {
			t.Fatal(err)
		}
		got := replayGoldenConfig(t, sys.String(), cfg, kill, revive)
		w, ok := want[sys.String()]
		if !ok {
			t.Fatalf("no committed golden for %s", sys)
		}
		if got != w {
			t.Errorf("preset %s diverged from the SystemKind golden:\n got %+v\nwant %+v", p.Name, got, w)
		}
	}
}
