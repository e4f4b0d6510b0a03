// Package config centralizes the paper's Table II system parameters and
// the experiment scaling presets the reproduction runs at. The real system
// (4GB PCM, 10^7-write cells) is intractable to simulate cell-by-cell, so
// experiments run on proportionally scaled substrates and rescale their
// results through lifetime.TimeModel (see internal/lifetime's package
// comment for the invariance argument).
package config

import (
	"fmt"

	"pcmcomp/internal/block"
	"pcmcomp/internal/pcm"
)

// PaperEnduranceMean is Table II's mean cell endurance.
const PaperEnduranceMean = 1e7

// PaperCapacityBytes is Table II's PCM capacity (4GB).
const PaperCapacityBytes = 4 << 30

// PaperLines is the number of 64-byte lines in the paper's memory.
const PaperLines = PaperCapacityBytes / block.Size

// PaperGeometry mirrors Table II's organization: 2 channels, 1 DIMM per
// channel, 1 rank per DIMM, 4 banks per rank.
func PaperGeometry() pcm.Geometry {
	g := pcm.Geometry{
		Channels: 2, DIMMsPerChannel: 1, RanksPerDIMM: 1, BanksPerRank: 4,
	}
	g.LinesPerBank = PaperLines / g.Banks()
	return g
}

// Scale is one experiment-size preset.
type Scale struct {
	// Name identifies the preset in reports.
	Name string
	// EnduranceMean is the scaled mean cell endurance.
	EnduranceMean float64
	// CoV is the endurance coefficient of variation (paper: 0.15;
	// Fig 13 uses 0.25).
	CoV float64
	// LinesPerBank scales capacity (8 banks as in Table II).
	LinesPerBank int
	// TraceLines is the workload generator's address space.
	TraceLines int
	// TraceEvents is the trace length before cyclic replay.
	TraceEvents int
}

// Presets, from fastest to most faithful.
var (
	// ScaleQuick suits unit tests and smoke runs (seconds).
	ScaleQuick = Scale{
		Name: "quick", EnduranceMean: 300, CoV: 0.15,
		LinesPerBank: 17, TraceLines: 128, TraceEvents: 4096,
	}
	// ScaleDefault is the EXPERIMENTS.md reporting scale (minutes).
	ScaleDefault = Scale{
		Name: "default", EnduranceMean: 1500, CoV: 0.15,
		LinesPerBank: 65, TraceLines: 512, TraceEvents: 16384,
	}
	// ScaleLarge trades hours for tighter statistics.
	ScaleLarge = Scale{
		Name: "large", EnduranceMean: 5000, CoV: 0.15,
		LinesPerBank: 257, TraceLines: 2048, TraceEvents: 65536,
	}
)

// ByName returns the preset with the given name ("quick", "default",
// "large"), shared by the CLI flag parsers and the pcmd service validator.
func ByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return ScaleQuick, nil
	case "default":
		return ScaleDefault, nil
	case "large":
		return ScaleLarge, nil
	default:
		return Scale{}, fmt.Errorf("config: unknown scale %q (want quick, default, or large)", name)
	}
}

// Names lists the preset names ByName accepts, fastest first.
func Names() []string { return []string{ScaleQuick.Name, ScaleDefault.Name, ScaleLarge.Name} }

// Validate checks the preset.
func (s Scale) Validate() error {
	if s.EnduranceMean < 1 {
		return fmt.Errorf("config: endurance mean %v must be >= 1", s.EnduranceMean)
	}
	if s.CoV < 0 || s.CoV >= 1 {
		return fmt.Errorf("config: CoV %v out of [0,1)", s.CoV)
	}
	if s.LinesPerBank < 2 {
		return fmt.Errorf("config: lines per bank %d must be >= 2", s.LinesPerBank)
	}
	if s.TraceLines < 1 || s.TraceEvents < 1 {
		return fmt.Errorf("config: trace dimensions must be >= 1")
	}
	return nil
}

// Substrate builds the scaled PCM configuration for this preset.
func (s Scale) Substrate(seed uint64) pcm.Config {
	g := PaperGeometry()
	g.LinesPerBank = s.LinesPerBank
	return pcm.Config{
		Geometry:  g,
		Endurance: pcm.Endurance{Mean: s.EnduranceMean, CoV: s.CoV},
		Seed:      seed,
	}
}

// EnduranceScale returns realEndurance / simulatedEndurance for
// lifetime.TimeModel.
func (s Scale) EnduranceScale() float64 { return PaperEnduranceMean / s.EnduranceMean }

// CapacityScale returns realLines / simulatedLines for lifetime.TimeModel.
func (s Scale) CapacityScale() float64 {
	g := PaperGeometry()
	simLines := float64(s.LinesPerBank * g.Banks())
	return float64(PaperLines) / simLines
}
