package lifetime_test

import (
	"math"
	"testing"

	"pcmcomp/internal/config"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/scheme"
	"pcmcomp/internal/workload"
)

// The encoded-write golden pins every write-encoder path end to end: a
// quick-scale lifetime run of one app (seed 1, the CLI and job default)
// per encoder, composed onto Comp+WF so intra-line rotation makes windows
// wrap past the line end. Each record holds the whole lifetime.Result —
// every controller counter, the encoder's flip and energy savings, and the
// float-valued fields as IEEE-754 bit patterns so the comparison is exact.
// The expected values were captured from the byte-at-a-time encoders and
// window loops; any rewrite of the encoder stage must reproduce them.

const encodedGoldenApp = "milc"

// encodedResult flattens a lifetime.Result into a comparable record.
type encodedResult struct {
	DemandWrites, Writes, Dropped, Compressed, HeuristicRaw  uint64
	Reads, CompressedReads, BitFlips, SetPulses, ResetPulses uint64
	NewFaults, Uncorrectable, GapMovements, Rotations        uint64
	Resurrections, FNWInversions, StartPtrUpdates, EncUpdate uint64
	EncodedWrites                                            uint64
	EncoderFlipsSaved                                        int64
	EncoderEnergySavedPJBits, FinalDeadFractionBits          uint64
	Replays                                                  int
	Failed                                                   bool
	DeathCellsN                                              int64
	DeathCellsMeanBits, DeathCellsVarBits                    uint64
	DeathCellsMinBits, DeathCellsMaxBits                     uint64
}

func flatten(r lifetime.Result) encodedResult {
	s := r.Stats
	return encodedResult{
		DemandWrites: r.DemandWrites, Writes: s.Writes, Dropped: s.DroppedWrites,
		Compressed: s.CompressedWrites, HeuristicRaw: s.HeuristicRawWrites,
		Reads: s.Reads, CompressedReads: s.CompressedReads, BitFlips: s.BitFlips,
		SetPulses: s.SetPulses, ResetPulses: s.ResetPulses, NewFaults: s.NewFaults,
		Uncorrectable: s.UncorrectableErrors, GapMovements: s.GapMovements,
		Rotations: s.Rotations, Resurrections: s.Resurrections,
		FNWInversions: s.FNWInversions, StartPtrUpdates: s.StartPointerUpdates,
		EncUpdate: s.EncodingUpdates, EncodedWrites: s.EncodedWrites,
		EncoderFlipsSaved:        s.EncoderFlipsSaved,
		EncoderEnergySavedPJBits: math.Float64bits(s.EncoderEnergySavedPJ),
		FinalDeadFractionBits:    math.Float64bits(r.FinalDeadFraction),
		Replays:                  r.Replays, Failed: r.Failed,
		DeathCellsN:        s.DeathFaultCells.N(),
		DeathCellsMeanBits: math.Float64bits(s.DeathFaultCells.Mean()),
		DeathCellsVarBits:  math.Float64bits(s.DeathFaultCells.Variance()),
		DeathCellsMinBits:  math.Float64bits(s.DeathFaultCells.Min()),
		DeathCellsMaxBits:  math.Float64bits(s.DeathFaultCells.Max()),
	}
}

var encodedGolden = map[string]encodedResult{
	"coset2": {
		DemandWrites: 591872, Writes: 597528, Dropped: 61409, Compressed: 534545,
		HeuristicRaw: 1701, Reads: 0, CompressedReads: 0, BitFlips: 15447974,
		SetPulses: 7740890, ResetPulses: 7707084, NewFaults: 4941,
		Uncorrectable: 61409, GapMovements: 5914, Rotations: 4620,
		Resurrections: 408, FNWInversions: 0, StartPtrUpdates: 71132,
		EncUpdate: 135360, EncodedWrites: 537676, EncoderFlipsSaved: 14778290,
		EncoderEnergySavedPJBits: 0x41ad78150cffeb26,
		FinalDeadFractionBits:    0x3fe0f0f0f0f0f0f1, Replays: 145, Failed: true,
		DeathCellsN: 480, DeathCellsMeanBits: 0x403c4d5555555558,
		DeathCellsVarBits: 0x40672bd02d82d827,
		DeathCellsMinBits: 0x401c000000000000,
		DeathCellsMaxBits: 0x4051800000000000,
	},
	"coset4": {
		DemandWrites: 615424, Writes: 621304, Dropped: 59970, Compressed: 559669,
		HeuristicRaw: 1784, Reads: 0, CompressedReads: 0, BitFlips: 15406455,
		SetPulses: 7720345, ResetPulses: 7686110, NewFaults: 4781,
		Uncorrectable: 59970, GapMovements: 6149, Rotations: 4805,
		Resurrections: 384, FNWInversions: 0, StartPtrUpdates: 74335,
		EncUpdate: 141859, EncodedWrites: 562754, EncoderFlipsSaved: 18050394,
		EncoderEnergySavedPJBits: 0x41b1fa6629666c95,
		FinalDeadFractionBits:    0x3fe03c3c3c3c3c3c, Replays: 151, Failed: true,
		DeathCellsN: 453, DeathCellsMeanBits: 0x403be8d47c53a352,
		DeathCellsVarBits: 0x4066ecbc543264fa,
		DeathCellsMinBits: 0x401c000000000000,
		DeathCellsMaxBits: 0x4053800000000000,
	},
	"coset8": {
		DemandWrites: 664576, Writes: 670940, Dropped: 64064, Compressed: 605121,
		HeuristicRaw: 1885, Reads: 0, CompressedReads: 0, BitFlips: 15371305,
		SetPulses: 7702569, ResetPulses: 7668736, NewFaults: 4698,
		Uncorrectable: 64064, GapMovements: 6642, Rotations: 5187,
		Resurrections: 424, FNWInversions: 0, StartPtrUpdates: 80645,
		EncUpdate: 153347, EncodedWrites: 608374, EncoderFlipsSaved: 21567086,
		EncoderEnergySavedPJBits: 0x41b5717b893346ca,
		FinalDeadFractionBits:    0x3fe0000000000000, Replays: 163, Failed: true,
		DeathCellsN: 492, DeathCellsMeanBits: 0x403b3ef597ef597c,
		DeathCellsVarBits: 0x4063b71aebea234d,
		DeathCellsMinBits: 0x401c000000000000,
		DeathCellsMaxBits: 0x4050400000000000,
	},
	"wire": {
		DemandWrites: 615424, Writes: 621333, Dropped: 56065, Compressed: 563602,
		HeuristicRaw: 1794, Reads: 0, CompressedReads: 0, BitFlips: 15290531,
		SetPulses: 7664580, ResetPulses: 7625951, NewFaults: 4524,
		Uncorrectable: 56065, GapMovements: 6149, Rotations: 4805,
		Resurrections: 370, FNWInversions: 0, StartPtrUpdates: 74516,
		EncUpdate: 142893, EncodedWrites: 566626, EncoderFlipsSaved: 19844566,
		EncoderEnergySavedPJBits: 0x41b454f1a419a5f0,
		FinalDeadFractionBits:    0x3fe0b4b4b4b4b4b5, Replays: 151, Failed: true,
		DeathCellsN: 441, DeathCellsMeanBits: 0x403adee95c4ca037,
		DeathCellsVarBits: 0x40651cb541ffc96b,
		DeathCellsMinBits: 0x401c000000000000,
		DeathCellsMaxBits: 0x4051400000000000,
	},
	"fnw": {
		DemandWrites: 553984, Writes: 559288, Dropped: 60417, Compressed: 497480,
		HeuristicRaw: 1529, Reads: 0, CompressedReads: 0, BitFlips: 15578436,
		SetPulses: 7806102, ResetPulses: 7772334, NewFaults: 5379,
		Uncorrectable: 60417, GapMovements: 5536, Rotations: 4324,
		Resurrections: 411, FNWInversions: 221687, StartPtrUpdates: 66957,
		EncUpdate: 125793, EncodedWrites: 0, EncoderFlipsSaved: 0,
		EncoderEnergySavedPJBits: 0x0, FinalDeadFractionBits: 0x3fe0000000000000,
		Replays: 136, Failed: true, DeathCellsN: 479,
		DeathCellsMeanBits: 0x403d0ef6ea16725d,
		DeathCellsVarBits:  0x406ad6342cc95287,
		DeathCellsMinBits:  0x401c000000000000,
		DeathCellsMaxBits:  0x4053400000000000,
	},
}

func TestEncodedWriteGolden(t *testing.T) {
	scale := config.ScaleQuick
	prof, err := workload.ByName(encodedGoldenApp)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, scale.TraceLines, 1)
	if err != nil {
		t.Fatal(err)
	}
	events := gen.GenerateTrace(scale.TraceEvents)
	for _, enc := range []string{"coset2", "coset4", "coset8", "wire", "fnw"} {
		sp, err := scheme.Parse("comp=bdi+fpc,ecc=ecp6,enc=" + enc + ",wl=startgap+intraline,res=on")
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := sp.ControllerConfig(scale.Substrate(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := lifetime.Run(lifetime.DefaultConfig(ctrl), events)
		if err != nil {
			t.Fatal(err)
		}
		got := flatten(res)
		if want, ok := encodedGolden[enc]; !ok || got != want {
			t.Errorf("enc=%s diverged from the golden:\n got %+v\nwant %+v", enc, got, want)
		}
	}
}
