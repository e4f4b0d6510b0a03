// Package benchmarks hosts the repository's benchmark bodies in one
// registry shared by two harnesses: the root bench_test.go wrappers (for
// `go test -bench`) and cmd/bench (which runs the registry programmatically
// and emits BENCH_pipeline.json for the benchmark-regression workflow).
//
// Two families live here:
//
//   - Figure/Table benchmarks regenerate one table or figure of the paper's
//     evaluation per iteration at the quick scale — they track end-to-end
//     experiment cost.
//   - Microbenchmarks (WriteHot, WriteAged, CompressSelect,
//     MonteCarloCurve) isolate the per-write simulation kernel — they
//     track the hot path every experiment funnels through, and WriteHot
//     and MonteCarloCurve additionally guard the zero-allocation property
//     of their kernels.
//
// FleetSweeps (fleet.go) sits above both: one distributed sweep through a
// real in-process pcmd per iteration, gating service-level throughput.
package benchmarks

import (
	"context"
	"fmt"
	"testing"

	"pcmcomp/internal/compress"
	"pcmcomp/internal/config"
	"pcmcomp/internal/core"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/experiments"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/montecarlo"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

// Entry is one registered benchmark.
type Entry struct {
	// Name is the benchmark's registry name (without the Benchmark prefix).
	Name string
	// Micro marks kernel microbenchmarks; the rest regenerate a paper
	// figure or table per iteration.
	Micro bool
	// F is the benchmark body.
	F func(b *testing.B)
}

// All returns the full registry, microbenchmarks first.
func All() []Entry {
	return []Entry{
		{Name: "WriteHot", Micro: true, F: WriteHot},
		{Name: "WriteAged", Micro: true, F: WriteAged},
		{Name: "CompressSelect", Micro: true, F: CompressSelect},
		{Name: "MonteCarloCurve", Micro: true, F: MonteCarloCurve},
		{Name: "FleetSweeps", F: FleetSweeps},
		{Name: "Fig1DWBitFlips", F: Fig1DWBitFlips},
		{Name: "Fig3CompressedSize", F: Fig3CompressedSize},
		{Name: "Fig5FlipDelta", F: Fig5FlipDelta},
		{Name: "Fig6SizeChange", F: Fig6SizeChange},
		{Name: "Fig7SizeSeries", F: Fig7SizeSeries},
		{Name: "Fig9MonteCarlo", F: Fig9MonteCarlo},
		{Name: "Fig9Tolerance", F: Fig9Tolerance},
		{Name: "Fig10Lifetime", F: Fig10Lifetime},
		{Name: "Fig11MaxSizeCDF", F: Fig11MaxSizeCDF},
		{Name: "Fig12RecoveredCells", F: Fig12RecoveredCells},
		{Name: "Fig13HighVariation", F: Fig13HighVariation},
		{Name: "Table3Workloads", F: Table3Workloads},
		{Name: "Table4Months", F: Table4Months},
		{Name: "PerfOverhead", F: PerfOverhead},
		{Name: "UncorrectableErrors", F: UncorrectableErrors},
	}
}

// ByName returns the entry with the given name.
func ByName(name string) (Entry, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("benchmarks: unknown benchmark %q", name)
}

// --- Microbenchmarks -------------------------------------------------------

// benchMemory is the 4-bank, 132-line substrate of the write
// microbenchmarks, at the given mean cell endurance.
func benchMemory(endurance float64) pcm.Config {
	return pcm.Config{
		Geometry: pcm.Geometry{
			Channels: 1, DIMMsPerChannel: 1, RanksPerDIMM: 1,
			BanksPerRank: 4, LinesPerBank: 33,
		},
		Endurance: pcm.Endurance{Mean: endurance, CoV: 0.15},
		Seed:      1,
	}
}

// writeFixture builds a controller from cfg and a pregenerated write-back
// stream over its logical lines from the size-unstable gcc profile, which
// exercises compression, the SC heuristic, and window placement.
func writeFixture(b *testing.B, cfg core.Config) (*core.Controller, []trace.Event) {
	b.Helper()
	ctrl, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, ctrl.LogicalLines(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return ctrl, gen.GenerateTrace(2048)
}

// hotSetup builds the WriteHot fixture: a Comp+WF controller on a substrate
// whose cell endurance is effectively infinite (no cell ever wears out, so
// iterations measure the steady-state kernel, not fault churn), fed the gcc
// stream.
func hotSetup(b *testing.B) (*core.Controller, []trace.Event) {
	b.Helper()
	ctrl, events := writeFixture(b, core.DefaultConfig(core.CompWF, benchMemory(1e9)))
	// Warm the controller: materialize every line and grow the per-line
	// payload buffers to their steady-state capacity.
	for i := range events {
		ctrl.Write(events[i].Addr%ctrl.LogicalLines(), &events[i].Data)
	}
	return ctrl, events
}

// WriteHot measures one steady-state Controller.Write on the Comp+WF hot
// path (compress -> SC heuristic -> placement -> differential write, plus
// its share of wear-leveling bookkeeping). It must report 0 allocs/op.
func WriteHot(b *testing.B) {
	ctrl, events := hotSetup(b)
	logical := ctrl.LogicalLines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &events[i%len(events)]
		ctrl.Write(ev.Addr%logical, &ev.Data)
	}
}

// agedController builds the WriteAged fixture: a Comp+WF controller on a
// low-endurance substrate, aged with the gcc stream until a quarter of its
// lines have died. Endurance sampling is deterministic in (seed, address),
// so every call returns a controller in the identical aged state.
func agedController(b *testing.B) (*core.Controller, []trace.Event) {
	b.Helper()
	cfg := lifetime.DefaultConfig(core.DefaultConfig(core.CompWF, benchMemory(300))).Controller
	ctrl, events := writeFixture(b, cfg)
	logical := ctrl.LogicalLines()
	for i := 0; ctrl.DeadFraction() < 0.25; i++ {
		ev := &events[i%len(events)]
		ctrl.Write(ev.Addr%logical, &ev.Data)
	}
	return ctrl, events
}

// WriteAged measures one Comp+WF Controller.Write on pre-faulted lines:
// placement slides past faulty cells, writes wear cells out, lines die and
// Start-Gap copies retry dead lines — the path a lifetime run spends its
// time in once the memory ages, which WriteHot's immortal cells never
// reach. As in the second half of a lifetime run, a growing share of the
// writes hits dead lines and is dropped. When the memory reaches the
// paper's 50% end-of-life criterion, a fresh controller is aged again
// outside the timer. Recorded only; no -check gate (cells dying mid-write
// may allocate).
func WriteAged(b *testing.B) {
	ctrl, events := agedController(b)
	logical := ctrl.LogicalLines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ctrl.DeadFraction() >= 0.5 {
			b.StopTimer()
			ctrl, _ = agedController(b)
			b.StartTimer()
		}
		ev := &events[i%len(events)]
		ctrl.Write(ev.Addr%logical, &ev.Data)
	}
}

// CompressSelect measures the controller's compression decision for one
// 64-byte line: the BEST-of race across the BDI geometries and FPC, as run
// on every compressed write-back.
func CompressSelect(b *testing.B) {
	corpus := compressCorpus(b)
	var comp compress.Compressor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := comp.Compress(&corpus[i%len(corpus)].Data)
		if res.Size() > 64 {
			b.Fatal("expanded")
		}
	}
}

// compressCorpus mixes high-, medium- and low-compressibility write-backs
// so the selector exercises every candidate path.
func compressCorpus(b *testing.B) []trace.Event {
	b.Helper()
	var corpus []trace.Event
	for _, app := range []string{"milc", "gcc", "lbm"} {
		prof, err := workload.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := workload.NewGenerator(prof, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		corpus = append(corpus, gen.GenerateTrace(256)...)
	}
	return corpus
}

// MonteCarloCurve measures one Fig 9-style failure-probability sweep
// (ECP-6, 32-byte window, 1..20 errors, 300 trials per point), the
// Monte-Carlo fault-injection loop the batched RNG feeds. The Runner and
// the output buffer are reused across iterations, as in the lifetime
// sweeps' steady state; it must report 0 allocs/op (guarded by
// TestMonteCarloCurveZeroAllocs and cmd/bench -check).
func MonteCarloCurve(b *testing.B) {
	scheme := ecp.New(6)
	runner := montecarlo.NewRunner()
	curve := make([]float64, 0, 20)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		curve, err = runner.AppendCurve(ctx, curve[:0], scheme, 32, 20, 300, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure/Table benchmarks ----------------------------------------------

func quickOpts() experiments.LifetimeOptions {
	return experiments.LifetimeOptions{Scale: config.ScaleQuick, Seed: 1}
}

// logOnce prints the regenerated table on the first iteration (visible with
// -v under `go test -bench`), so the bench harness reproduces the paper's
// rows verbatim.
func logOnce(b *testing.B, i int, s fmt.Stringer) {
	if i == 0 {
		b.Log("\n" + s.String())
	}
}

// Fig1DWBitFlips regenerates Figure 1 (random bit-flip pattern of
// consecutive DW writes to one hot gobmk block).
func Fig1DWBitFlips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1BitFlips("gobmk", 64, 20000, 128, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig3CompressedSize regenerates Figure 3 (average compressed size per app
// for BDI/FPC/BEST).
func Fig3CompressedSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig3CompressedSizes(128, 2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// Fig5FlipDelta regenerates Figure 5 (share of write-backs with
// increased/untouched/decreased flips after compression).
func Fig5FlipDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig5FlipDelta(64, 3000, 1)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// Fig6SizeChange regenerates Figure 6 (probability that consecutive writes
// to a block change compressed size).
func Fig6SizeChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig6SizeChange(64, 4000, 1)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// Fig7SizeSeries regenerates Figure 7 (compressed-size time series of
// representative bzip2/hmmer blocks).
func Fig7SizeSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []string{"bzip2", "hmmer"} {
			if _, err := experiments.Fig7SizeSeries(app, 64, 20000, 3, 40, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig9MonteCarlo regenerates one Figure 9 panel (ECP-6 failure probability
// curves across window sizes).
func Fig9MonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Failure("ecp", 64, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig9Tolerance regenerates the Figure 9 cross-scheme summary (tolerable
// faults at p=0.5 for a 32B window).
func Fig9Tolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig9Tolerance(55, 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// Fig10Lifetime regenerates Figure 10 (normalized lifetimes of
// Comp/Comp+W/Comp+WF across all 15 apps).
func Fig10Lifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig10Lifetimes(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// Fig11MaxSizeCDF regenerates Figure 11 (per-address max compressed-size
// CDFs for gcc and milc).
func Fig11MaxSizeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []string{"gcc", "milc"} {
			if _, err := experiments.Fig11MaxSizeCDF(app, 256, 20000, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig12RecoveredCells regenerates Figure 12 (average faulty cells in a
// failed line, Baseline vs Comp+WF).
func Fig12RecoveredCells(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig12RecoveredCells(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// Fig13HighVariation regenerates Figure 13 (Comp+WF lifetime at CoV 0.25).
func Fig13HighVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig13HighVariation(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// Table3Workloads regenerates Table III (WPKI and measured CR per
// workload).
func Table3Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Table3(128, 2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// Table4Months regenerates Table IV (projected months, Baseline vs
// Comp+WF).
func Table4Months(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Table4Months(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// PerfOverhead regenerates the §V-B performance-overhead numbers.
func PerfOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.PerfOverhead(64, 1000, 4000, 1)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, tb)
	}
}

// UncorrectableErrors regenerates the abstract's uncorrectable-error-
// reduction claim on milc.
func UncorrectableErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.UncorrectableReduction(quickOpts(), "milc", 100000); err != nil {
			b.Fatal(err)
		}
	}
}
