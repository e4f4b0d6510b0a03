package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pcmcomp/internal/core"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/ecc/aegis"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/ecc/safer"
	"pcmcomp/internal/ecc/secded"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

func TestSingleSystemRun(t *testing.T) {
	if err := run(context.Background(), []string{"-app", "milc", "-system", "baseline", "-scale", "quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSystemsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("four lifetime runs")
	}
	if err := run(context.Background(), []string{"-app", "sjeng", "-system", "all", "-scale", "quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceReplay(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(p, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.pcmt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, g.GenerateTrace(2000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-app", "gcc", "-system", "comp+wf", "-scale", "quick", "-trace", path}); err != nil {
		t.Fatal(err)
	}
}

func TestBadArgs(t *testing.T) {
	if err := run(context.Background(), []string{"-system", "bogus"}); err == nil {
		t.Fatal("bogus system accepted")
	}
	if err := run(context.Background(), []string{"-scale", "bogus"}); err == nil {
		t.Fatal("bogus scale accepted")
	}
	if err := run(context.Background(), []string{"-app", "bogus"}); err == nil {
		t.Fatal("bogus app accepted")
	}
	if err := run(context.Background(), []string{"-trace", "/nonexistent/file.pcmt"}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestSchemeAndFNWFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-app", "milc", "-system", "comp+wf", "-scale", "quick", "-ecc", "safer", "-fnw"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-ecc", "bogus"}); err == nil {
		t.Fatal("bogus ECC scheme accepted")
	}
}

// TestResolveSystems checks the -system lookup: "all" is every preset in
// the paper's order, and a single name (any case, "+"-less alias allowed)
// resolves to its canonical preset name.
func TestResolveSystems(t *testing.T) {
	all, err := resolveSystems("all", "ecp", false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range all {
		got = append(got, s.name)
	}
	if want := []string{"baseline", "comp", "comp+w", "comp+wf"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("all -> %v, want %v", got, want)
	}
	for name, want := range map[string]string{
		"baseline": "baseline", "Comp": "comp", "compw": "comp+w", "COMPWF": "comp+wf",
	} {
		systems, err := resolveSystems(name, "ecp", false)
		if err != nil || len(systems) != 1 || systems[0].name != want {
			t.Fatalf("%s -> %v, %v; want one %s", name, systems, err, want)
		}
	}
}

// refSchemes are the ECC schemes each -ecc name must build, constructed
// here independently of the registry.
var refSchemes = map[string]func() ecc.Scheme{
	"ecp":    func() ecc.Scheme { return ecp.New(6) },
	"safer":  func() ecc.Scheme { return safer.New(5) },
	"aegis":  func() ecc.Scheme { return aegis.MustNew(17, 31) },
	"secded": func() ecc.Scheme { return secded.Scheme{} },
}

// refSystems maps each preset onto the SystemKind the CLI built it from
// before it used the registry.
var refSystems = map[string]core.SystemKind{
	"baseline": core.Baseline, "comp": core.Comp, "comp+w": core.CompW, "comp+wf": core.CompWF,
}

// TestSystemsMatchDefaultConfig replays a short trace through every
// preset x -ecc x -fnw combination twice: once with the controller the CLI
// builds through the registry, once with core.DefaultConfig(system) plus
// the scheme and Flip-N-Write flag set by hand. The results must be equal.
func TestSystemsMatchDefaultConfig(t *testing.T) {
	prof, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	events := gen.GenerateTrace(512)
	mem := pcm.Config{
		Geometry: pcm.Geometry{
			Channels: 1, DIMMsPerChannel: 1, RanksPerDIMM: 1,
			BanksPerRank: 2, LinesPerBank: 17,
		},
		Endurance: pcm.Endurance{Mean: 200, CoV: 0.15},
		Seed:      3,
	}
	replay := func(ctrl core.Config) lifetime.Result {
		t.Helper()
		res, err := lifetime.Run(lifetime.DefaultConfig(ctrl), events)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Failed {
			t.Fatalf("%s: memory did not wear out", ctrl.Label)
		}
		return res
	}
	for eccName, newScheme := range refSchemes {
		for _, fnw := range []bool{false, true} {
			systems, err := resolveSystems("all", eccName, fnw)
			if err != nil {
				t.Fatal(err)
			}
			for _, sys := range systems {
				ctrl, err := sys.spec.ControllerConfig(mem)
				if err != nil {
					t.Fatal(err)
				}
				ref := core.DefaultConfig(refSystems[sys.name], mem)
				ref.Scheme = newScheme()
				ref.UseFNW = fnw
				if got, want := replay(ctrl), replay(ref); !reflect.DeepEqual(got, want) {
					t.Errorf("%s -ecc %s fnw=%v: registry run %+v, DefaultConfig run %+v",
						sys.name, eccName, fnw, got, want)
				}
			}
		}
	}
}

// TestNDJSONTraceReplay replays an NDJSON trace file: -trace sniffs the
// encoding from the contents, not the file name.
func TestNDJSONTraceReplay(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(p, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteNDJSON(f, g.GenerateTrace(1500)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-app", "gcc", "-system", "comp", "-scale", "quick", "-trace", path}); err != nil {
		t.Fatal(err)
	}
}

func TestGzipTraceReplay(t *testing.T) {
	p, err := workload.ByName("sjeng")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(p, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.pcmt.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := trace.NewStreamWriter(f, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := sw.Append(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-app", "sjeng", "-system", "comp", "-scale", "quick", "-trace", path}); err != nil {
		t.Fatal(err)
	}
}
