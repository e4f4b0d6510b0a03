package experiments_test

import (
	"context"
	"encoding/json"
	"testing"

	"pcmcomp/internal/config"
	"pcmcomp/internal/experiments"
	"pcmcomp/internal/server"
)

// TestLifetimeJobMatchesFig10Runs cross-checks the two callers of the
// lifetime runner: a pcmd lifetime job over the four presets reports, for
// each system, the demand writes of that app's Fig 10 run. The job runs
// without a cap factor and the table caps its other rows at 40x the
// Baseline; at quick scale, seed 1, no row of these apps comes near that
// cap (the largest ratio is milc's Comp+WF, 4.62x), so the cap is no
// exception here: the test checks that and then that every count is equal.
func TestLifetimeJobMatchesFig10Runs(t *testing.T) {
	apps := []string{"milc", "gcc", "lbm"}
	systems := []string{"baseline", "comp", "comp+w", "comp+wf"}
	runs, err := experiments.Fig10Runs(experiments.LifetimeOptions{Scale: config.ScaleQuick, Seed: 1}, apps)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range apps {
		params, err := json.Marshal(map[string]any{"app": app, "scale": "quick", "seed": 1, "systems": systems})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := server.ExecuteLocal(context.Background(), server.KindLifetime, params)
		if err != nil {
			t.Fatal(err)
		}
		var job server.LifetimeResult
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
		if len(job.Systems) != len(systems) {
			t.Fatalf("%s: %d job rows, want %d", app, len(job.Systems), len(systems))
		}
		for r, sys := range job.Systems {
			want := runs[i][r].DemandWrites
			if limit := 40 * runs[i][0].DemandWrites; r > 0 && want >= limit {
				t.Fatalf("%s %s: the table's 40x cap binds (%d demand writes)", app, sys.System, want)
			}
			if sys.DemandWrites != want {
				t.Errorf("%s %s: job %d demand writes, Fig 10 runner %d", app, sys.System, sys.DemandWrites, want)
			}
		}
	}
}
