package pcmcomp

// Public facade: the implementation lives under internal/ (one package per
// subsystem; see DESIGN.md), and this file re-exports the surface a
// downstream user needs — the compression stack, the hard-error schemes,
// the compression-window controller with its four system configurations,
// the workload models, and the lifetime / Monte-Carlo experiment drivers.

import (
	"context"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/config"
	"pcmcomp/internal/core"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/ecc/aegis"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/ecc/safer"
	"pcmcomp/internal/ecc/secded"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/montecarlo"
	"pcmcomp/internal/parallel"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/server"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

// Block is one 64-byte memory line.
type Block = block.Block

// LineSize is the memory line size in bytes.
const LineSize = block.Size

// --- Compression ---

// CompressionResult is the outcome of compressing one line.
type CompressionResult = compress.Result

// Compress returns the smaller of the BDI and FPC encodings of a line (the
// paper's BEST scheme), falling back to raw storage when neither helps. It
// runs a fresh compress.Compressor, so the result is safe to retain; loops
// that compress many lines should hold their own Compressor instead.
func Compress(b *Block) CompressionResult {
	var c compress.Compressor
	return c.Compress(b)
}

// Decompress reverses Compress given the stored encoding metadata.
func Decompress(enc compress.Encoding, data []byte) (Block, error) {
	var c compress.Compressor
	return c.Decompress(enc, data)
}

// --- Hard-error tolerance ---

// ErrorScheme decides whether data placed in a window of a line with stuck
// cells can still be stored and recovered.
type ErrorScheme = ecc.Scheme

// FaultSet records a line's stuck cells.
type FaultSet = ecc.FaultSet

// NewECP returns the ECP-n scheme (paper baseline: n = 6).
func NewECP(n int) ErrorScheme { return ecp.New(n) }

// NewSAFER returns the SAFER-2^k scheme (paper: k = 5, SAFER-32).
func NewSAFER(k int) ErrorScheme { return safer.New(k) }

// NewAegis returns the Aegis k x m scheme (paper: 17 x 31).
func NewAegis(k, m int) (ErrorScheme, error) { return aegis.New(k, m) }

// NewSECDED returns the conventional (72,64) Hsiao SEC-DED scheme the
// paper argues against (§II-C).
func NewSECDED() ErrorScheme { return secded.Scheme{} }

// --- PCM substrate and controller ---

// MemoryConfig parameterizes the PCM substrate (geometry, endurance, seed).
type MemoryConfig = pcm.Config

// Geometry describes the DIMM organization.
type Geometry = pcm.Geometry

// Endurance is the statistical cell-wear model.
type Endurance = pcm.Endurance

// System selects one of the paper's four evaluated systems.
type System = core.SystemKind

// The four systems of the paper's evaluation (§IV).
const (
	Baseline = core.Baseline
	Comp     = core.Comp
	CompW    = core.CompW
	CompWF   = core.CompWF
)

// ControllerConfig parameterizes a Controller.
type ControllerConfig = core.Config

// Controller is the compression-window PCM memory controller — the paper's
// primary contribution.
type Controller = core.Controller

// WriteOutcome reports what happened to one write-back.
type WriteOutcome = core.Outcome

// DefaultControllerConfig returns the paper's configuration for a system
// on a substrate: ECP-6, Start-Gap psi 100, 16-bit/1-byte intra-line
// rotation, the Fig 8 heuristic with 16B/8B thresholds.
func DefaultControllerConfig(sys System, mem MemoryConfig) ControllerConfig {
	return core.DefaultConfig(sys, mem)
}

// NewController builds a controller.
func NewController(cfg ControllerConfig) (*Controller, error) { return core.New(cfg) }

// --- Workloads and traces ---

// WorkloadProfile describes one synthetic SPEC CPU2006 application model.
type WorkloadProfile = workload.Profile

// WorkloadGenerator produces a profile's write-back stream.
type WorkloadGenerator = workload.Generator

// TraceEvent is one LLC write-back.
type TraceEvent = trace.Event

// Workloads returns the 15 Table III application models.
func Workloads() []WorkloadProfile { return workload.Profiles() }

// WorkloadByName returns one application model by SPEC benchmark name.
func WorkloadByName(name string) (WorkloadProfile, error) { return workload.ByName(name) }

// NewWorkloadGenerator builds a deterministic generator over numLines.
func NewWorkloadGenerator(p WorkloadProfile, numLines int, seed uint64) (*WorkloadGenerator, error) {
	return workload.NewGenerator(p, numLines, seed)
}

// --- Experiments ---

// LifetimeConfig parameterizes a lifetime run; LifetimeResult reports it.
type (
	LifetimeConfig = lifetime.Config
	LifetimeResult = lifetime.Result
	TimeModel      = lifetime.TimeModel
)

// DefaultLifetimeConfig wraps a controller configuration with the paper's
// failure criterion and endurance-scaled wear-leveling parameters.
func DefaultLifetimeConfig(ctrl ControllerConfig) LifetimeConfig {
	return lifetime.DefaultConfig(ctrl)
}

// RunLifetime replays a trace through a fresh controller until 50% of
// capacity is dead (the paper's end-of-life criterion).
func RunLifetime(cfg LifetimeConfig, events []TraceEvent) (LifetimeResult, error) {
	return lifetime.Run(cfg, events)
}

// RunLifetimeContext is RunLifetime with cancellation: on context expiry it
// returns the partial result accumulated so far together with ctx.Err().
func RunLifetimeContext(ctx context.Context, cfg LifetimeConfig, events []TraceEvent) (LifetimeResult, error) {
	return lifetime.RunContext(ctx, cfg, events)
}

// FailureProbability estimates the Fig 9 Monte-Carlo failure probability
// of placing a windowBytes payload in a line with errors uniform stuck
// cells under the scheme.
func FailureProbability(scheme ErrorScheme, windowBytes, errors, trials int, seed uint64) (float64, error) {
	return montecarlo.FailureProbability(montecarlo.Config{
		Scheme: scheme, WindowBytes: windowBytes,
		Errors: errors, Trials: trials, Seed: seed,
	})
}

// --- Experiment scaling presets ---

// Scale is an experiment-size preset; see config.ScaleQuick/Default/Large.
type Scale = config.Scale

// Experiment scales, from fastest to most faithful.
var (
	ScaleQuick   = config.ScaleQuick
	ScaleDefault = config.ScaleDefault
	ScaleLarge   = config.ScaleLarge
)

// ScaleByName returns a preset by name ("quick", "default", "large").
func ScaleByName(name string) (Scale, error) { return config.ByName(name) }

// --- Concurrency ---

// ForEach runs fn(i) for i in [0, n) with at most limit invocations in
// flight (limit <= 0 selects the CPU count); the lowest-index error wins.
// It is the bounded-concurrency primitive behind the experiment drivers
// and the pcmd service worker pool.
func ForEach(n, limit int, fn func(i int) error) error { return parallel.ForEach(n, limit, fn) }

// --- Service ---

// Service is the pcmd HTTP simulation service: the expensive computations
// exposed as asynchronous jobs on a bounded worker pool with a
// content-addressed result cache. It implements http.Handler; serve it
// with any http.Server and stop it with Shutdown. See cmd/pcmd for the
// ready-made daemon.
type Service = server.Server

// ServiceConfig parameterizes a Service.
type ServiceConfig = server.Config

// NewService builds a Service and starts its worker pool.
func NewService(cfg ServiceConfig) *Service { return server.New(cfg) }
