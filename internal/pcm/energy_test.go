package pcm

import (
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
)

func TestSetResetAccounting(t *testing.T) {
	m := New(smallConfig(1e6))
	l := m.Line(0)
	var d block.Block
	d[0] = 0xff // 8 cells programmed 0->1
	var res WriteResult
	l.WriteWindow(&d, 0, block.Size, &res)
	if res.Sets != 8 || res.Resets != 0 {
		t.Fatalf("sets/resets = %d/%d, want 8/0", res.Sets, res.Resets)
	}
	var zero block.Block
	res = WriteResult{}
	l.WriteWindow(&zero, 0, block.Size, &res) // 8 cells programmed 1->0
	if res.Sets != 0 || res.Resets != 8 {
		t.Fatalf("sets/resets = %d/%d, want 0/8", res.Sets, res.Resets)
	}
}

func TestSetsPlusResetsEqualsFlips(t *testing.T) {
	m := New(smallConfig(1e9))
	l := m.Line(0)
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		var d block.Block
		for w := 0; w < 8; w++ {
			d.SetWord(w, r.Uint64())
		}
		var res WriteResult
		l.WriteWindow(&d, 0, block.Size, &res)
		if res.Sets+res.Resets != res.FlipsWritten {
			t.Fatalf("sets %d + resets %d != flips %d", res.Sets, res.Resets, res.FlipsWritten)
		}
	}
}

func TestEnergyModel(t *testing.T) {
	e := DefaultEnergyModel()
	if e.RESETpJ <= e.SETpJ {
		t.Fatal("RESET should cost more energy than SET per pulse")
	}
	if got := e.WriteEnergyPJ(2, 3); got != 2*e.SETpJ+3*e.RESETpJ {
		t.Fatalf("energy = %v", got)
	}
	if e.WriteEnergyPJ(0, 0) != 0 {
		t.Fatal("zero pulses should cost nothing")
	}
}
