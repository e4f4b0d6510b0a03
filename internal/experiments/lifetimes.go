package experiments

import (
	"fmt"

	"pcmcomp/internal/config"
	"pcmcomp/internal/core"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/parallel"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/stats"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

// LifetimeOptions parameterize the lifetime experiments (Figs 10/12/13,
// Table IV, the §II-C SECDED comparison and the ablations).
type LifetimeOptions struct {
	// Scale selects the substrate preset.
	Scale config.Scale
	// Seed drives trace generation and endurance sampling.
	Seed uint64
	// MaxDemandWrites caps every run of every lifetime table, Baseline
	// included (0 = none); quick modes set it.
	MaxDemandWrites uint64
	// BaselineCapFactor caps non-baseline runs at this multiple of the
	// app's baseline lifetime (0 = default 40). Zero-dominated workloads
	// under Comp+WF approach the 50%-dead criterion asymptotically; the
	// paper's largest reported gain is ~13x, so a 40x cap bounds runtime
	// without censoring any realistic ratio.
	BaselineCapFactor uint64
	// Concurrency bounds the per-application worker fan-out of every
	// lifetime table, the ablations included (0 = CPU count). Results are
	// identical at any width — the determinism tests sweep this knob to
	// prove it.
	Concurrency int
}

func (o LifetimeOptions) capFactor() uint64 {
	if o.BaselineCapFactor == 0 {
		return 40
	}
	return o.BaselineCapFactor
}

// appTrace builds the per-app replay trace at the option's scale.
func (o LifetimeOptions) appTrace(app string) ([]trace.Event, workload.Profile, error) {
	g, err := generatorFor(app, o.Scale.TraceLines, o.Seed)
	if err != nil {
		return nil, workload.Profile{}, err
	}
	return g.GenerateTrace(o.Scale.TraceEvents), g.Profile(), nil
}

// variant is one configuration a lifetime table compares against the
// Baseline: a paper system, optionally with its controller config tweaked.
type variant struct {
	sys   core.SystemKind
	tweak func(*core.Config)
}

// compWF is the Comp+WF system with tweak applied.
func compWF(tweak func(*core.Config)) variant { return variant{core.CompWF, tweak} }

// runConfig builds the lifetime run of v, capped at maxWrites demand
// writes (0 = none). Every lifetime run of this package is built here.
func (o LifetimeOptions) runConfig(v variant, maxWrites uint64) lifetime.Config {
	ctrl := core.DefaultConfig(v.sys, o.Scale.Substrate(o.Seed))
	if v.tweak != nil {
		v.tweak(&ctrl)
	}
	cfg := lifetime.DefaultConfig(ctrl)
	cfg.MaxDemandWrites = maxWrites
	return cfg
}

// appRuns are one application's lifetime runs: the Baseline and one
// result per variant, in variant order.
type appRuns struct {
	app  string
	prof workload.Profile
	base lifetime.Result
	runs []lifetime.Result
}

// normalized returns each variant's lifetime relative to the Baseline.
func (r appRuns) normalized() []float64 {
	out := make([]float64, len(r.runs))
	for i, res := range r.runs {
		out[i] = res.Normalized(r.base)
	}
	return out
}

// lifetimeRuns is the runner behind every lifetime table. For each app,
// concurrently up to o.Concurrency workers, it runs the Baseline under the
// option cap alone, then each variant under the cap rule below.
// Runs are independent and internally seeded, so the results are
// deterministic regardless of scheduling or worker count; the first error
// wins.
func (o LifetimeOptions) lifetimeRuns(apps []string, variants []variant) ([]appRuns, error) {
	out := make([]appRuns, len(apps))
	err := parallel.ForEach(len(apps), o.Concurrency, func(i int) error {
		events, prof, err := o.appTrace(apps[i])
		if err != nil {
			return err
		}
		r := appRuns{app: apps[i], prof: prof, runs: make([]lifetime.Result, len(variants))}
		if r.base, err = lifetime.Run(o.runConfig(variant{sys: core.Baseline}, o.MaxDemandWrites), events); err != nil {
			return err
		}
		// The cap rule: the option cap, tightened to capFactor times the
		// Baseline's lifetime.
		capWrites := r.base.DemandWrites * o.capFactor()
		if capWrites == 0 || (o.MaxDemandWrites > 0 && o.MaxDemandWrites < capWrites) {
			capWrites = o.MaxDemandWrites
		}
		for j, v := range variants {
			if r.runs[j], err = lifetime.Run(o.runConfig(v, capWrites), events); err != nil {
				return err
			}
		}
		out[i] = r
		return nil
	})
	return out, err
}

// lifetimeTable describes a table of one row per application over
// lifetimeRuns.
type lifetimeTable struct {
	title    string
	columns  []string
	apps     []string
	variants []variant
	// row turns one app's runs into its cells.
	row func(appRuns) []float64
	// average appends an "Average" row: the column sums in app order
	// divided by the app count.
	average bool
}

// table runs spec and renders its rows.
func (o LifetimeOptions) table(spec lifetimeTable) (*stats.Table, error) {
	all, err := o.lifetimeRuns(spec.apps, spec.variants)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Title: spec.title, Columns: spec.columns}
	sums := make([]float64, len(spec.columns))
	for _, r := range all {
		cells := spec.row(r)
		t.AddRow(r.app, cells...)
		for j, v := range cells {
			sums[j] += v
		}
	}
	if spec.average {
		n := float64(len(spec.apps))
		for j := range sums {
			sums[j] /= n
		}
		t.AddRow("Average", sums...)
	}
	return t, nil
}

// Fig10Lifetimes reproduces Figure 10: per-application lifetime of Comp,
// Comp+W and Comp+WF normalized to the Baseline system. The paper's
// averages are ~1.35x (Comp, with regressions on low-CR apps), 3.2x
// (Comp+W) and 4.3x (Comp+WF).
func Fig10Lifetimes(o LifetimeOptions) (*stats.Table, error) {
	return o.table(lifetimeTable{
		title:    "Figure 10: lifetime normalized to Baseline (CoV " + fmt.Sprintf("%.2f", o.Scale.CoV) + ")",
		columns:  []string{"Comp", "Comp+W", "Comp+WF"},
		apps:     FigureOrder,
		variants: []variant{{sys: core.Comp}, {sys: core.CompW}, {sys: core.CompWF}},
		row:      appRuns.normalized,
		average:  true,
	})
}

// Fig12RecoveredCells reproduces Figure 12: the average number of faulty
// cells a failed 512-bit line had accumulated when it died, under Comp+WF.
// The paper reports ~3x ECP-6's 6 cells on average, with highly
// compressible apps (sjeng, milc, cactusADM) reaching 25-35.
func Fig12RecoveredCells(o LifetimeOptions) (*stats.Table, error) {
	return o.table(lifetimeTable{
		title:    "Figure 12: average faulty cells in a failed line (Comp+WF vs Baseline's ECP-6 limit)",
		columns:  []string{"Baseline", "Comp+WF"},
		apps:     FigureOrder,
		variants: []variant{compWF(nil)},
		row: func(r appRuns) []float64 {
			return []float64{r.base.Stats.DeathFaultCells.Mean(), r.runs[0].Stats.DeathFaultCells.Mean()}
		},
		average: true,
	})
}

// Fig13HighVariation reproduces Figure 13: Comp+WF lifetime normalized to
// Baseline under higher process variation (CoV = 0.25).
func Fig13HighVariation(o LifetimeOptions) (*stats.Table, error) {
	o.Scale.CoV = 0.25
	return o.table(lifetimeTable{
		title:    "Figure 13: Comp+WF lifetime normalized to Baseline (CoV 0.25)",
		columns:  []string{"Comp+WF"},
		apps:     FigureOrder,
		variants: []variant{compWF(nil)},
		row:      appRuns.normalized,
		average:  true,
	})
}

// Table4Months reproduces Table IV: projected lifetime in months for the
// Baseline and Comp+WF systems, rescaled to the paper's endurance and
// capacity through lifetime.TimeModel (paper averages: 22 vs 79 months).
func Table4Months(o LifetimeOptions) (*stats.Table, error) {
	return o.table(lifetimeTable{
		title:    "Table IV: projected lifetime in months (rescaled to 4GB / 1e7-write cells)",
		columns:  []string{"Baseline", "Comp+WF"},
		apps:     FigureOrder,
		variants: []variant{compWF(nil)},
		row: func(r appRuns) []float64 {
			tm := lifetime.DefaultTimeModel(r.prof.WPKI, o.Scale.EnduranceScale(), o.Scale.CapacityScale())
			return []float64{tm.Months(r.base.DemandWrites), tm.Months(r.runs[0].DemandWrites)}
		},
		average: true,
	})
}

// fixedBudget runs the Baseline and Comp+WF on app's trace for exactly
// writes demand writes each: FailureFraction 1 keeps the runs going past
// the lifetime criterion.
func (o LifetimeOptions) fixedBudget(app string, writes uint64) (base, wf lifetime.Result, err error) {
	events, _, err := o.appTrace(app)
	if err != nil {
		return base, wf, err
	}
	var res [2]lifetime.Result
	for i, sys := range []core.SystemKind{core.Baseline, core.CompWF} {
		cfg := o.runConfig(variant{sys: sys}, writes)
		cfg.FailureFraction = 1
		if res[i], err = lifetime.Run(cfg, events); err != nil {
			return base, wf, err
		}
	}
	return res[0], res[1], nil
}

// writeEnergyPJ is a run's average write energy in pJ per write-back.
func writeEnergyPJ(r lifetime.Result) float64 {
	if r.Stats.Writes == 0 {
		return 0
	}
	return pcm.DefaultEnergyModel().WriteEnergyPJ(int(r.Stats.SetPulses), int(r.Stats.ResetPulses)) /
		float64(r.Stats.Writes)
}

// UncorrectableReduction computes the abstract's reliability claim: the
// reduction in uncorrectable errors of Comp+WF relative to Baseline over an
// equal write budget.
func UncorrectableReduction(o LifetimeOptions, app string, writes uint64) (baseline, compWF uint64, err error) {
	b, w, err := o.fixedBudget(app, writes)
	return b.Stats.UncorrectableErrors, w.Stats.UncorrectableErrors, err
}

// EnergyComparison reports average write energy (pJ/write) for Baseline vs
// Comp+WF over an equal write budget — the compression energy side-claim.
func EnergyComparison(o LifetimeOptions, writes uint64) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Write energy (pJ per write-back, equal write budget)",
		Columns: []string{"Baseline", "Comp+WF", "ratio"},
	}
	for _, app := range FigureOrder {
		bRes, wRes, err := o.fixedBudget(app, writes)
		if err != nil {
			return nil, err
		}
		b, w := writeEnergyPJ(bRes), writeEnergyPJ(wRes)
		ratio := 0.0
		if b > 0 {
			ratio = w / b
		}
		t.AddRow(app, b, w, ratio)
	}
	return t, nil
}
