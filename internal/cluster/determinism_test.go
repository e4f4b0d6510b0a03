package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/server"
)

// localBackends builds n in-process backends over the server's local job
// pipeline — the same engine a peerless pcmd hands its coordinator.
func localBackends(n int) []cluster.Backend {
	out := make([]cluster.Backend, n)
	for i := range out {
		out[i] = cluster.NewLoopback(fmt.Sprintf("local-%d", i),
			func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
				return server.ExecuteLocal(ctx, server.Kind(kind), params)
			})
	}
	return out
}

// TestShardedSweepBitIdentical pins the determinism contract: a sweep
// sharded across N backends marshals to bytes identical to the unsharded
// run (N=1), for every job kind. Scheduling, backend count, and completion
// order must leave no trace in the merged document.
func TestShardedSweepBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		req  cluster.SweepRequest
	}{
		{
			name: "lifetime",
			req: cluster.SweepRequest{
				Kind: cluster.KindLifetime,
				Params: map[string]any{
					"app": "milc", "scale": "quick",
					"systems": []any{"baseline", "comp"}, "max_demand_writes": 20000,
				},
				SeedStart: 1, SeedCount: 3,
			},
		},
		{
			// The scheme matrix multiplies the shard axis: seeds x schemes,
			// scheme-major. The merged document must still be byte-stable
			// across backend counts.
			name: "lifetime-scheme-matrix",
			req: cluster.SweepRequest{
				Kind: cluster.KindLifetime,
				Params: map[string]any{
					"app": "milc", "scale": "quick", "max_demand_writes": 10000,
				},
				SeedStart: 1, SeedCount: 2,
				Schemes: []string{"baseline", "comp", "enc=coset4"},
			},
		},
		{
			name: "failure-probability",
			req: cluster.SweepRequest{
				Kind: cluster.KindFailureProbability,
				Params: map[string]any{
					"scheme": "ecp", "window": 16, "max_errors": 8, "trials": 2000,
				},
				SeedStart: 1, SeedCount: 4,
			},
		},
		{
			name: "compression",
			req: cluster.SweepRequest{
				Kind:      cluster.KindCompression,
				Params:    map[string]any{"apps": []any{"milc"}, "scale": "quick"},
				SeedStart: 7, SeedCount: 2,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			var refCurve []float64
			for _, n := range []int{1, 2, 4} {
				coord, err := cluster.New(localBackends(n), cluster.Options{Concurrency: 2 * n})
				if err != nil {
					t.Fatal(err)
				}
				res, err := coord.SweepWithHooks(context.Background(), tc.req, cluster.SweepHooks{})
				if err != nil {
					t.Fatalf("n=%d: sweep: %v", n, err)
				}
				buf, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if n == 1 {
					ref, refCurve = buf, res.MeanCurve
					continue
				}
				if !bytes.Equal(buf, ref) {
					t.Fatalf("n=%d: merged result differs from unsharded run\n n=1: %s\n n=%d: %s", n, ref, n, buf)
				}
				// Belt and braces for the float reduction: the mean curve must
				// be Float64bits-identical, not merely value-close.
				for i := range res.MeanCurve {
					if math.Float64bits(res.MeanCurve[i]) != math.Float64bits(refCurve[i]) {
						t.Fatalf("n=%d: MeanCurve[%d] bits differ: %x vs %x",
							n, i, math.Float64bits(res.MeanCurve[i]), math.Float64bits(refCurve[i]))
					}
				}
			}
		})
	}
}
