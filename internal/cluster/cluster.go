// Package cluster shards sweep requests across a fleet of pcmd backends
// and merges the shard results deterministically.
//
// The paper's headline numbers come from seed-swept experiments: the same
// lifetime or Monte-Carlo configuration repeated over a range of RNG seeds
// and reduced into a table or an averaged curve. A sweep of S seeds is
// embarrassingly parallel — every seed is an independent job — so the
// coordinator splits the seed range into one shard per seed, dispatches
// shards concurrently to registered backends (remote pcmd daemons through
// internal/pcmclient, or an in-process loopback), and reassembles the
// results in seed order.
//
// # Determinism contract
//
// Each shard's computation is a pure function of its parameters (the RNG is
// seed-partitioned, PR 2), so the merged result depends only on the request,
// never on which backend ran a shard, in what order shards finished, or how
// many backends participated. Concretely:
//
//   - shard results are placed into a slice indexed by seed offset, so the
//     merged Shards list is always in ascending seed order;
//   - raw shard payloads are JSON-compacted before merging, so an HTTP
//     backend (whose responses are re-indented by the server encoder) and a
//     loopback backend yield identical bytes;
//   - the Monte-Carlo mean curve is reduced left-to-right over that ordered
//     slice, making the float64 summation order fixed.
//
// A sweep sharded across N backends therefore marshals to bytes identical
// to the same sweep run unsharded (N=1); the tests pin this for N ∈ {1,2,4}.
//
// Robustness (retries, hedging, circuit breaking) lives in Coordinator; it
// only ever changes *where* a shard runs, never *what* it computes.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"

	"pcmcomp/internal/montecarlo"
	"pcmcomp/internal/scheme"
)

// The job kinds a sweep can shard, mirroring the pcmd endpoints.
const (
	KindLifetime           = "lifetime"
	KindFailureProbability = "failure-probability"
	KindCompression        = "compression"
)

// maxSeeds bounds a single sweep's fan-out (seeds x schemes).
const maxSeeds = 4096

// SweepRequest describes one sweep: a base job configuration repeated over
// a contiguous seed range — and, for lifetime sweeps, optionally over a
// scheme matrix. The per-shard job is Params with "seed" (and "schemes",
// when the matrix axis is used) set to the shard's point, submitted to the
// kind's POST /v1/jobs endpoint.
type SweepRequest struct {
	// Kind is the job kind to shard (lifetime, failure-probability, or
	// compression).
	Kind string `json:"kind"`
	// Params is the base parameter object for every shard; any "seed" it
	// carries is overridden per shard.
	Params map[string]any `json:"params,omitempty"`
	// SeedStart is the first seed (default 1; pcmd treats seed 0 as 1, so
	// sweeps start at 1 to keep shard params canonical).
	SeedStart uint64 `json:"seed_start,omitempty"`
	// SeedCount is the number of consecutive seeds (default 1).
	SeedCount int `json:"seed_count,omitempty"`
	// Schemes is the scheme-matrix axis (lifetime sweeps only): one shard
	// per (scheme, seed) pair, scheme-major. Each entry is a scheme spec —
	// a preset name or a key=value composition — canonicalized by
	// Normalize. Empty leaves the seed axis alone.
	Schemes []string `json:"schemes,omitempty"`
}

// ShardCount is the sweep's total fan-out: seeds times scheme-matrix rows.
func (r *SweepRequest) ShardCount() int {
	if len(r.Schemes) == 0 {
		return r.SeedCount
	}
	return r.SeedCount * len(r.Schemes)
}

// Normalize applies defaults and validates; the error text is safe to send
// to API clients verbatim.
func (r *SweepRequest) Normalize() error {
	switch r.Kind {
	case KindLifetime, KindFailureProbability, KindCompression:
	case "":
		return fmt.Errorf("kind is required (lifetime, failure-probability, or compression)")
	default:
		return fmt.Errorf("unknown sweep kind %q (want lifetime, failure-probability, or compression)", r.Kind)
	}
	if r.SeedStart == 0 {
		r.SeedStart = 1
	}
	if r.SeedCount == 0 {
		r.SeedCount = 1
	}
	if r.SeedCount < 1 || r.SeedCount > maxSeeds {
		return fmt.Errorf("seed_count %d out of [1,%d]", r.SeedCount, maxSeeds)
	}
	if r.SeedStart+uint64(r.SeedCount) < r.SeedStart {
		return fmt.Errorf("seed range overflows: start %d count %d", r.SeedStart, r.SeedCount)
	}
	if len(r.Schemes) > 0 {
		if r.Kind != KindLifetime {
			return fmt.Errorf("schemes are only valid for lifetime sweeps (got kind %q)", r.Kind)
		}
		seen := make(map[string]bool, len(r.Schemes))
		for i, s := range r.Schemes {
			sp, err := scheme.Parse(s)
			if err != nil {
				return err
			}
			// Canonical spec strings keep shard params — and therefore the
			// backends' cache keys — identical across spelling variants.
			r.Schemes[i] = sp.String()
			if seen[r.Schemes[i]] {
				return fmt.Errorf("duplicate scheme %q", r.Schemes[i])
			}
			seen[r.Schemes[i]] = true
		}
		if n := r.ShardCount(); n > maxSeeds {
			return fmt.Errorf("schemes x seeds = %d shards, max %d", n, maxSeeds)
		}
	}
	if r.Params == nil {
		r.Params = map[string]any{}
	}
	return nil
}

// shard is one unit of dispatch: the base params with this shard's point
// on the seed (and, for scheme-matrix sweeps, scheme) axes.
type shard struct {
	index  int
	seed   uint64
	scheme string // empty outside scheme-matrix sweeps
	kind   string
	params json.RawMessage
}

// shards expands the request into its dispatch units, scheme-major then
// seed-ascending (shard index = schemeIdx*SeedCount + seedOffset) so the
// merged order is deterministic. Map marshaling sorts keys, so shard params
// are canonical bytes and every backend computes the same cache key for the
// same shard.
func (r *SweepRequest) shards() ([]shard, error) {
	schemes := r.Schemes
	if len(schemes) == 0 {
		schemes = []string{""}
	}
	out := make([]shard, 0, r.ShardCount())
	for _, sc := range schemes {
		for i := 0; i < r.SeedCount; i++ {
			seed := r.SeedStart + uint64(i)
			p := make(map[string]any, len(r.Params)+2)
			for k, v := range r.Params {
				p[k] = v
			}
			p["seed"] = seed
			if sc != "" {
				p["schemes"] = []string{sc}
			}
			buf, err := json.Marshal(p)
			if err != nil {
				return nil, fmt.Errorf("cluster: marshal shard params: %w", err)
			}
			out = append(out, shard{index: len(out), seed: seed, scheme: sc, kind: r.Kind, params: buf})
		}
	}
	return out, nil
}

// FirstShardParams returns the params of the request's first shard, the
// bytes a backend's job route will decode. Shards differ only in seed and
// (on scheme-matrix sweeps) in a scheme Normalize already parsed, so a
// front door can validate this one before it queues the sweep. The request
// must be normalized.
func (r *SweepRequest) FirstShardParams() (json.RawMessage, error) {
	shards, err := r.shards()
	if err != nil {
		return nil, err
	}
	return shards[0].params, nil
}

// ShardResult is one shard's slice of the merged result.
type ShardResult struct {
	Seed uint64 `json:"seed"`
	// Scheme is the shard's scheme spec on scheme-matrix sweeps; empty
	// otherwise.
	Scheme string `json:"scheme,omitempty"`
	// Result is the shard job's raw result payload, compacted. Which
	// backend produced it is deliberately absent — the merged document must
	// not depend on scheduling.
	Result json.RawMessage `json:"result"`
}

// SweepResult is the deterministic merged output of a sweep: the per-seed
// results in ascending seed order, plus the kind-specific reduction. Its
// JSON marshaling is byte-identical for any backend count (see the package
// comment for the contract).
type SweepResult struct {
	Kind      string        `json:"kind"`
	SeedStart uint64        `json:"seed_start"`
	SeedCount int           `json:"seed_count"`
	Schemes   []string      `json:"schemes,omitempty"`
	Shards    []ShardResult `json:"shards"`
	// MeanCurve is the failure-probability reduction: the per-seed curves
	// averaged pointwise, summed in seed order (fixed float64 order).
	MeanCurve []float64 `json:"mean_curve,omitempty"`
	// TolerableAtHalf is the paper's comparison point on the mean curve:
	// the largest error count with failure probability <= 0.5.
	TolerableAtHalf int `json:"tolerable_at_half,omitempty"`
}

// merge assembles the ordered raw shard results (raw[i] belongs to shard
// index i, scheme-major then seed-ascending) into the sweep's merged
// document.
func merge(req *SweepRequest, raw []json.RawMessage) (*SweepResult, error) {
	out := &SweepResult{
		Kind:      req.Kind,
		SeedStart: req.SeedStart,
		SeedCount: req.SeedCount,
		Schemes:   req.Schemes,
		Shards:    make([]ShardResult, len(raw)),
	}
	for i, r := range raw {
		seed := req.SeedStart + uint64(i%req.SeedCount)
		sc := ""
		if len(req.Schemes) > 0 {
			sc = req.Schemes[i/req.SeedCount]
		}
		if len(r) == 0 {
			return nil, fmt.Errorf("cluster: missing result for seed %d", seed)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, r); err != nil {
			return nil, fmt.Errorf("cluster: shard seed %d returned invalid JSON: %w", seed, err)
		}
		out.Shards[i] = ShardResult{Seed: seed, Scheme: sc, Result: buf.Bytes()}
	}
	if req.Kind == KindFailureProbability {
		if err := reduceCurves(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reduceCurves computes the pointwise mean of the per-seed curves, in seed
// order so the summation is deterministic.
func reduceCurves(res *SweepResult) error {
	var sum []float64
	for _, sh := range res.Shards {
		var doc struct {
			Curve []float64 `json:"curve"`
		}
		if err := json.Unmarshal(sh.Result, &doc); err != nil {
			return fmt.Errorf("cluster: decode curve for seed %d: %w", sh.Seed, err)
		}
		if sum == nil {
			sum = make([]float64, len(doc.Curve))
		}
		if len(doc.Curve) != len(sum) {
			return fmt.Errorf("cluster: seed %d curve has %d points, want %d",
				sh.Seed, len(doc.Curve), len(sum))
		}
		for i, p := range doc.Curve {
			sum[i] += p
		}
	}
	n := float64(len(res.Shards))
	for i := range sum {
		sum[i] /= n
	}
	res.MeanCurve = sum
	res.TolerableAtHalf = montecarlo.TolerableAt(sum, 0.5)
	return nil
}
