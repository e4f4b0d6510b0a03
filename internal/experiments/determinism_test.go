package experiments

import (
	"math"
	"runtime"
	"testing"

	"pcmcomp/internal/config"
	"pcmcomp/internal/stats"
)

// TestLifetimeDeterministicAcrossParallelism proves the claim in
// lifetimeRuns' contract: per-app runs are internally seeded and share no
// mutable state, so the same-seed experiment tables are bit-identical at
// any worker width. It sweeps the Concurrency knob over serial, a small
// pool, and the full CPU count for Fig 10 and for an ablation (whose three
// apps fan out the same way), comparing every cell as raw IEEE-754 bits.
func TestLifetimeDeterministicAcrossParallelism(t *testing.T) {
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	base := LifetimeOptions{
		Scale: config.ScaleQuick,
		Seed:  11,
		// Cap the runs: determinism does not need full lifetimes, and the
		// cap keeps the sweeps fast.
		MaxDemandWrites: 20000,
	}
	for _, tc := range []struct {
		name  string
		build func(LifetimeOptions) (*stats.Table, error)
	}{
		{"fig10", Fig10Lifetimes},
		{"ablation-sc", AblationSCHeuristic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(width int) *stats.Table {
				o := base
				o.Concurrency = width
				tb, err := tc.build(o)
				if err != nil {
					t.Fatalf("width %d: %v", width, err)
				}
				return tb
			}
			ref := run(widths[0])
			for _, w := range widths[1:] {
				got := run(w)
				if got.Rows() != ref.Rows() {
					t.Fatalf("width %d: %d rows, width %d has %d", w, got.Rows(), widths[0], ref.Rows())
				}
				for r := 0; r < ref.Rows(); r++ {
					if got.Label(r) != ref.Label(r) {
						t.Fatalf("width %d row %d: label %q, want %q", w, r, got.Label(r), ref.Label(r))
					}
					for c := range ref.Columns {
						gb := math.Float64bits(got.Value(r, c))
						rb := math.Float64bits(ref.Value(r, c))
						if gb != rb {
							t.Errorf("width %d: %s[%s] = %v (bits %016x), width %d got %v (bits %016x)",
								w, got.Label(r), ref.Columns[c], got.Value(r, c), gb,
								widths[0], ref.Value(r, c), rb)
						}
					}
				}
			}
		})
	}
}
