package experiments

import (
	"testing"

	"pcmcomp/internal/stats"
)

func TestAblationSCHeuristicTable(t *testing.T) {
	tb, err := AblationSCHeuristic(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	for i := 0; i < tb.Rows(); i++ {
		for col := 0; col < 2; col++ {
			if v := tb.Value(i, col); v <= 0 {
				t.Errorf("%s col %d: non-positive lifetime %v", tb.Label(i), col, v)
			}
		}
	}
}

func TestAblationThresholdsTable(t *testing.T) {
	tb, err := AblationThresholds(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	for i := 0; i < tb.Rows(); i++ {
		for col := 0; col < 3; col++ {
			if v := tb.Value(i, col); v <= 0 {
				t.Errorf("%s: non-positive lifetime %v", tb.Label(i), v)
			}
		}
	}
}

func TestAblationECCSchemeTable(t *testing.T) {
	tb, err := AblationECCScheme(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Partition schemes must be at least competitive with ECP-6 on the
	// highly compressible app (row 0: milc).
	ecpV, saferV, aegisV := tb.Value(0, 0), tb.Value(0, 1), tb.Value(0, 2)
	if saferV < ecpV*0.7 || aegisV < ecpV*0.7 {
		t.Errorf("partition schemes collapsed: ECP %.2f SAFER %.2f Aegis %.2f", ecpV, saferV, aegisV)
	}
}

func TestAblationFNWTable(t *testing.T) {
	tb, err := AblationFNW(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.Rows(); i++ {
		dwE, fnwE := tb.Value(i, 2), tb.Value(i, 3)
		if dwE <= 0 || fnwE <= 0 {
			t.Errorf("%s: non-positive energy", tb.Label(i))
		}
		// FNW never writes more than half the window: per-write energy
		// must not exceed DW's by more than noise.
		if fnwE > dwE*1.1 {
			t.Errorf("%s: FNW energy %.1f exceeds DW %.1f", tb.Label(i), fnwE, dwE)
		}
	}
}

func TestEnergyComparisonTable(t *testing.T) {
	tb, err := EnergyComparison(quickOptions(), 30000)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 15 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// Highly compressible apps must save write energy under Comp+WF.
	for _, app := range []string{"sjeng", "milc", "cactusADM"} {
		row := findRow(t, tb, app)
		if ratio := tb.Value(row, 2); ratio >= 1 {
			t.Errorf("%s: energy ratio %.2f should be < 1", app, ratio)
		}
	}
}

// TestLifetimeTablesHonorOptionCap pins the cap rule: MaxDemandWrites caps
// every run of a lifetime table, variants included. The cap sits far below
// every quick-scale Baseline lifetime of the ablation apps, so each run
// stops at it and no variant can outlive its Baseline.
func TestLifetimeTablesHonorOptionCap(t *testing.T) {
	o := quickOptions()
	o.MaxDemandWrites = 20000
	for _, tc := range []struct {
		name string
		fn   func(LifetimeOptions) (*stats.Table, error)
		// lifeCols are the table's lifetime columns; the rest are energy.
		lifeCols int
	}{
		{"sc-heuristic", AblationSCHeuristic, 2},
		{"thresholds", AblationThresholds, 3},
		{"ecc-scheme", AblationECCScheme, 3},
		{"fnw", AblationFNW, 2},
		{"secded", SECDEDComparison, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := tc.fn(o)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < tb.Rows(); r++ {
				for c := 0; c < tc.lifeCols; c++ {
					if v := tb.Value(r, c); v > 1 {
						t.Errorf("%s[%s] = %.3f, want <= 1 under the option cap", tb.Label(r), tb.Columns[c], v)
					}
				}
			}
		})
	}
}
