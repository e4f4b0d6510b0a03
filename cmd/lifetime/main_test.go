package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pcmcomp/internal/core"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/ecc/aegis"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/ecc/safer"
	"pcmcomp/internal/ecc/secded"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/server"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/tracestore"
	"pcmcomp/internal/workload"
)

func TestSingleSystemRun(t *testing.T) {
	if err := run(context.Background(), []string{"-app", "milc", "-system", "baseline", "-scale", "quick"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestAllSystemsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("four lifetime runs")
	}
	if err := run(context.Background(), []string{"-app", "sjeng", "-system", "all", "-scale", "quick"}, io.Discard); err != nil {
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
	if err := run(context.Background(), []string{"-app", "gcc", "-system", "comp+wf", "-scale", "quick", "-trace", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestBadArgs(t *testing.T) {
	if err := run(context.Background(), []string{"-system", "bogus"}, io.Discard); err == nil {
		t.Fatal("bogus system accepted")
	}
	if err := run(context.Background(), []string{"-scale", "bogus"}, io.Discard); err == nil {
		t.Fatal("bogus scale accepted")
	}
	if err := run(context.Background(), []string{"-app", "bogus"}, io.Discard); err == nil {
		t.Fatal("bogus app accepted")
	}
	if err := run(context.Background(), []string{"-trace", "/nonexistent/file.pcmt"}, io.Discard); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestSchemeAndFNWFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-app", "milc", "-system", "comp+wf", "-scale", "quick", "-ecc", "safer", "-fnw"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-ecc", "bogus"}, io.Discard); err == nil {
		t.Fatal("bogus ECC scheme accepted")
	}
}

// TestInterruptPrintsPartialRow drives the Ctrl-C path: with the context
// canceled before or during the runs, the rows print up to the first one
// cut, which is marked "(interrupted)", and run returns an error wrapping
// context.Canceled.
func TestInterruptPrintsPartialRow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale string
		after time.Duration // cancel after this long; 0 = before run starts
	}{
		{"already canceled", "quick", 0},
		{"canceled mid-run", "default", 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.after == 0 {
				cancel()
			} else {
				time.AfterFunc(tc.after, cancel)
			}
			var out bytes.Buffer
			err := run(ctx, []string{"-app", "milc", "-scale", tc.scale}, &out)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want one wrapping context.Canceled", err)
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(lines) < 2 || len(lines)%2 != 0 {
				t.Fatalf("output is not whole rows:\n%s", out.String())
			}
			// Each row is a summary line and a stats line; only the last
			// row is the interrupted one.
			for i := 0; i < len(lines); i += 2 {
				cut := strings.HasSuffix(lines[i], "(interrupted)")
				if last := i == len(lines)-2; cut != last {
					t.Fatalf("row %d: interrupted %v, want %v:\n%s", i/2, cut, last, out.String())
				}
			}
			if tc.after == 0 && !strings.HasPrefix(lines[0], "baseline  demand writes            0") {
				t.Fatalf("a run started under a canceled context:\n%s", out.String())
			}
		})
	}
}

// TestResolveSystems checks the -system lookup: "all" is every preset in
// the paper's order, and a single name (any case, "+"-less alias allowed)
// resolves to its canonical preset name.
func TestResolveSystems(t *testing.T) {
	got, _, err := resolveSystems("all", "ecp", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"baseline", "comp", "comp+w", "comp+wf"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("all -> %v, want %v", got, want)
	}
	for name, want := range map[string]string{
		"baseline": "baseline", "Comp": "comp", "compw": "comp+w", "COMPWF": "comp+wf",
	} {
		names, _, err := resolveSystems(name, "ecp", false)
		if err != nil || len(names) != 1 || names[0] != want {
			t.Fatalf("%s -> %v, %v; want one %s", name, names, err, want)
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
			names, rows, err := resolveSystems("all", eccName, fnw)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				ctrl, err := rows[i].Spec.ControllerConfig(mem)
				if err != nil {
					t.Fatal(err)
				}
				ref := core.DefaultConfig(refSystems[name], mem)
				ref.Scheme = newScheme()
				ref.UseFNW = fnw
				if got, want := replay(ctrl), replay(ref); !reflect.DeepEqual(got, want) {
					t.Errorf("%s -ecc %s fnw=%v: registry run %+v, DefaultConfig run %+v",
						name, eccName, fnw, got, want)
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
	if err := run(context.Background(), []string{"-app", "gcc", "-system", "comp", "-scale", "quick", "-trace", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestGzipTraceReplay replays a gzip-wrapped PCMT file, the form tracegen
// writes for .gz paths.
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
	zw := gzip.NewWriter(f)
	if err := trace.Write(zw, g.GenerateTrace(1500)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-app", "sjeng", "-system", "comp", "-scale", "quick", "-trace", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// demandWritesRE matches a system row of run's report.
var demandWritesRE = regexp.MustCompile(`(?m)^(\S+)\s+demand writes\s+(\d+)`)

// TestTraceReplayMatchesLifetimeJob replays one trace file through -trace
// and through a pcmd lifetime job on the file's store digest. Both must
// apply the same replay rule, so both report the same demand writes. The
// trace's raw addresses span more lines than the quick substrate holds,
// so folding them instead of densifying gives different numbers.
func TestTraceReplayMatchesLifetimeJob(t *testing.T) {
	prof, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := trace.Write(&raw, gen.GenerateTrace(4096)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "milc.pcmt")
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	systems := []string{"baseline", "comp+wf"}
	cli := map[string]uint64{}
	for _, sys := range systems {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-app", "milc", "-system", sys, "-scale", "quick", "-trace", path}, &out); err != nil {
			t.Fatal(err)
		}
		for _, m := range demandWritesRE.FindAllStringSubmatch(out.String(), -1) {
			n, err := strconv.ParseUint(m[2], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			cli[m[1]] = n
		}
	}

	store, err := tracestore.Open(tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := store.Put(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	params, err := json.Marshal(server.LifetimeParams{App: "milc", Trace: meta.Digest, Scale: "quick", Systems: systems, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := server.ExecuteLocal(tracestore.WithResolver(context.Background(), store), server.KindLifetime, params)
	if err != nil {
		t.Fatal(err)
	}
	var job server.LifetimeResult
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if len(job.Systems) != len(systems) {
		t.Fatalf("job ran %d systems, want %d", len(job.Systems), len(systems))
	}
	for _, r := range job.Systems {
		got, ok := cli[r.System]
		switch {
		case !ok:
			t.Errorf("-trace printed no %s row", r.System)
		case got != r.DemandWrites:
			t.Errorf("%s: -trace reports %d demand writes, the job %d", r.System, got, r.DemandWrites)
		}
	}
}
