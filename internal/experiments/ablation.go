package experiments

import (
	"strconv"

	"pcmcomp/internal/core"
	"pcmcomp/internal/ecc/aegis"
	"pcmcomp/internal/ecc/safer"
	"pcmcomp/internal/ecc/secded"
	"pcmcomp/internal/stats"
)

// The ablation studies of DESIGN.md §5: each isolates one design choice of
// the paper's mechanism and reports its lifetime (and, where relevant,
// energy) effect on a representative workload subset. Like the figures,
// each is a set of variants over lifetimeRuns.

// ablationApps is the workload subset used by the ablations: one high-,
// one medium-, and one low-compressibility application.
var ablationApps = []string{"milc", "gcc", "lbm"}

// AblationSCHeuristic compares Comp+WF lifetime with the Fig 8 heuristic
// enabled vs disabled, normalized to Baseline.
func AblationSCHeuristic(o LifetimeOptions) (*stats.Table, error) {
	return o.table(lifetimeTable{
		title:   "Ablation: SC bit-flip-control heuristic (Comp+WF lifetime vs Baseline)",
		columns: []string{"with-SC", "without-SC"},
		apps:    ablationApps,
		variants: []variant{
			compWF(nil),
			compWF(func(c *core.Config) { c.UseSCHeuristic = false }),
		},
		row: appRuns.normalized,
	})
}

// AblationThresholds sweeps the Fig 8 thresholds on a size-unstable
// workload (gcc) and reports Comp+WF lifetime normalized to Baseline.
func AblationThresholds(o LifetimeOptions) (*stats.Table, error) {
	t1s, t2s := []int{8, 16, 32}, []int{4, 8, 16}
	var variants []variant
	for _, t1 := range t1s {
		for _, t2 := range t2s {
			variants = append(variants, compWF(func(c *core.Config) {
				c.Threshold1 = t1
				c.Threshold2 = t2
			}))
		}
	}
	runs, err := o.lifetimeRuns([]string{"gcc"}, variants)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Ablation: SC thresholds (gcc, Comp+WF lifetime vs Baseline)",
		Columns: []string{"T2=4", "T2=8", "T2=16"},
	}
	cells := runs[0].normalized()
	for i, t1 := range t1s {
		t.AddRow("T1="+strconv.Itoa(t1), cells[i*len(t2s):(i+1)*len(t2s)]...)
	}
	return t, nil
}

// AblationECCScheme swaps the hard-error scheme under Comp+WF.
func AblationECCScheme(o LifetimeOptions) (*stats.Table, error) {
	return o.table(lifetimeTable{
		title:   "Ablation: hard-error scheme under Comp+WF (lifetime vs ECP-6 Baseline)",
		columns: []string{"ECP-6", "SAFER-32", "Aegis-17x31"},
		apps:    ablationApps,
		variants: []variant{
			compWF(nil), // core.DefaultConfig's ECP-6
			compWF(func(c *core.Config) { c.Scheme = safer.New(5) }),
			compWF(func(c *core.Config) { c.Scheme = aegis.MustNew(17, 31) }),
		},
		row: appRuns.normalized,
	})
}

// SECDEDComparison reproduces §II-C's argument at system level: a Baseline
// PCM protected by conventional SECDED dies far sooner than one using
// ECP-6, because SECDED loses a whole line at the second stuck cell in any
// 64-bit beat.
func SECDEDComparison(o LifetimeOptions) (*stats.Table, error) {
	return o.table(lifetimeTable{
		title:    "Section II-C: SECDED vs ECP-6 (Baseline lifetime, normalized to ECP-6)",
		columns:  []string{"ECP-6", "SECDED"},
		apps:     ablationApps,
		variants: []variant{{core.Baseline, func(c *core.Config) { c.Scheme = secded.Scheme{} }}},
		row:      func(r appRuns) []float64 { return []float64{1, r.runs[0].Normalized(r.base)} },
	})
}

// AblationFNW compares plain differential writes against Flip-N-Write at
// the window granularity, reporting Comp+WF lifetime and write energy.
func AblationFNW(o LifetimeOptions) (*stats.Table, error) {
	return o.table(lifetimeTable{
		title:    "Ablation: Flip-N-Write vs plain DW (Comp+WF)",
		columns:  []string{"DW-life", "FNW-life", "DW-pJ/wr", "FNW-pJ/wr"},
		apps:     ablationApps,
		variants: []variant{compWF(nil), compWF(func(c *core.Config) { c.UseFNW = true })},
		row: func(r appRuns) []float64 {
			return append(r.normalized(), writeEnergyPJ(r.runs[0]), writeEnergyPJ(r.runs[1]))
		},
	})
}
