package pcmcomp

// One benchmark per table and figure of the paper's evaluation, plus the
// hot-path microbenchmarks. The bodies live in internal/benchmarks so that
// cmd/bench can run the same registry programmatically and emit
// BENCH_pipeline.json; these wrappers expose them to `go test -bench`.
// Every figure/table benchmark regenerates its table once per iteration at
// the quick scale; run with
//
//	go test -bench=. -benchmem
//
// and use cmd/figures -scale default for the EXPERIMENTS.md reporting runs.

import (
	"testing"

	"pcmcomp/internal/benchmarks"
)

// BenchmarkWriteHot measures one steady-state Comp+WF Controller.Write.
// It must report 0 allocs/op (guarded by TestWriteHotAllocs in
// internal/core and tracked in BENCH_pipeline.json).
func BenchmarkWriteHot(b *testing.B) { benchmarks.WriteHot(b) }

// BenchmarkWriteAged measures one Comp+WF Controller.Write on pre-faulted,
// low-endurance lines, where placement slides and lines die.
func BenchmarkWriteAged(b *testing.B) { benchmarks.WriteAged(b) }

// BenchmarkCompressSelect measures the BEST-of compression decision for
// one 64-byte write-back.
func BenchmarkCompressSelect(b *testing.B) { benchmarks.CompressSelect(b) }

// BenchmarkMonteCarloCurve measures one ECP-6 failure-probability sweep of
// the Monte-Carlo fault-injection loop with reused Runner scratch. It must
// report 0 allocs/op (guarded by TestMonteCarloCurveZeroAllocs in
// internal/montecarlo and tracked in BENCH_pipeline.json).
func BenchmarkMonteCarloCurve(b *testing.B) { benchmarks.MonteCarloCurve(b) }

// BenchmarkFleetSweeps measures one distributed failure-probability sweep
// (four seed shards) end to end through a real in-process pcmd: HTTP
// handlers, coordinator dispatch, loopback ExecuteLocal, deterministic
// merge. Service-level throughput, gated by cmd/bench -check.
func BenchmarkFleetSweeps(b *testing.B) { benchmarks.FleetSweeps(b) }

func BenchmarkFig1DWBitFlips(b *testing.B)      { benchmarks.Fig1DWBitFlips(b) }
func BenchmarkFig3CompressedSize(b *testing.B)  { benchmarks.Fig3CompressedSize(b) }
func BenchmarkFig5FlipDelta(b *testing.B)       { benchmarks.Fig5FlipDelta(b) }
func BenchmarkFig6SizeChange(b *testing.B)      { benchmarks.Fig6SizeChange(b) }
func BenchmarkFig7SizeSeries(b *testing.B)      { benchmarks.Fig7SizeSeries(b) }
func BenchmarkFig9MonteCarlo(b *testing.B)      { benchmarks.Fig9MonteCarlo(b) }
func BenchmarkFig9Tolerance(b *testing.B)       { benchmarks.Fig9Tolerance(b) }
func BenchmarkFig10Lifetime(b *testing.B)       { benchmarks.Fig10Lifetime(b) }
func BenchmarkFig11MaxSizeCDF(b *testing.B)     { benchmarks.Fig11MaxSizeCDF(b) }
func BenchmarkFig12RecoveredCells(b *testing.B) { benchmarks.Fig12RecoveredCells(b) }
func BenchmarkFig13HighVariation(b *testing.B)  { benchmarks.Fig13HighVariation(b) }
func BenchmarkTable3Workloads(b *testing.B)     { benchmarks.Table3Workloads(b) }
func BenchmarkTable4Months(b *testing.B)        { benchmarks.Table4Months(b) }
func BenchmarkPerfOverhead(b *testing.B)        { benchmarks.PerfOverhead(b) }
func BenchmarkUncorrectableErrors(b *testing.B) { benchmarks.UncorrectableErrors(b) }
