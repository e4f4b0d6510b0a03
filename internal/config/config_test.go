package config

import (
	"testing"

	"pcmcomp/internal/cachesim"
	"pcmcomp/internal/core"
)

func TestPaperGeometryMatchesTableII(t *testing.T) {
	g := PaperGeometry()
	if g.Banks() != 8 {
		t.Fatalf("banks = %d, want 8 (2 channels x 4 banks)", g.Banks())
	}
	if g.TotalLines() != PaperLines {
		t.Fatalf("lines = %d, want %d (4GB of 64B lines)", g.TotalLines(), PaperLines)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPaperCacheConfig pins cachesim.DefaultConfig to Table II's
// hierarchy.
func TestPaperCacheConfig(t *testing.T) {
	c := cachesim.DefaultConfig()
	if c.Cores != 16 || c.L1Size != 32<<10 || c.L2Size != 4<<20 {
		t.Fatalf("cache config %+v does not match Table II", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScalePresetsValid(t *testing.T) {
	for _, s := range []Scale{ScaleQuick, ScaleDefault, ScaleLarge} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		sub := s.Substrate(1)
		if err := sub.Geometry.Validate(); err != nil {
			t.Errorf("%s substrate: %v", s.Name, err)
		}
		// The substrate must be usable by a controller.
		if _, err := core.New(core.DefaultConfig(core.CompWF, sub)); err != nil {
			t.Errorf("%s controller: %v", s.Name, err)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	bad := []Scale{
		{EnduranceMean: 0, CoV: 0.1, LinesPerBank: 4, TraceLines: 1, TraceEvents: 1},
		{EnduranceMean: 10, CoV: 1.5, LinesPerBank: 4, TraceLines: 1, TraceEvents: 1},
		{EnduranceMean: 10, CoV: 0.1, LinesPerBank: 1, TraceLines: 1, TraceEvents: 1},
		{EnduranceMean: 10, CoV: 0.1, LinesPerBank: 4, TraceLines: 0, TraceEvents: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad scale %d accepted", i)
		}
	}
}

func TestScaleFactors(t *testing.T) {
	s := ScaleQuick
	if got := s.EnduranceScale(); got != PaperEnduranceMean/300 {
		t.Fatalf("endurance scale = %v", got)
	}
	cs := s.CapacityScale()
	wantSim := float64(17 * 8)
	if got := float64(PaperLines) / wantSim; cs != got {
		t.Fatalf("capacity scale = %v, want %v", cs, got)
	}
	if cs <= 1 {
		t.Fatal("capacity scale should exceed 1 for scaled-down substrates")
	}
}
