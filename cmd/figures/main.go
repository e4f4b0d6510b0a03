// Command figures regenerates the tables and figures of the DSN'17 paper
// "Exploring the Potential for Collaborative Data Compression and
// Hard-Error Tolerance in PCM Memories" on the scaled simulation substrate.
//
// Usage:
//
//	figures [-scale quick|default|large] [-seed N] <experiment>
//
// Experiments: table3 fig1 fig3 fig5 fig6 fig7 fig9 fig10 fig11 fig12
// fig13 table4 perf uncorrectable energy secded ablation-sc
// ablation-thresholds ablation-ecc ablation-fnw, or all of them in that
// order with "all"; figures -h prints the same list.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pcmcomp/internal/config"
	"pcmcomp/internal/experiments"
	"pcmcomp/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// experimentNames lists every experiment, in the order "all" runs them.
var experimentNames = []string{
	"table3", "fig1", "fig3", "fig5", "fig6", "fig7", "fig9",
	"fig10", "fig11", "fig12", "fig13", "table4", "perf",
	"uncorrectable", "energy", "secded",
	"ablation-sc", "ablation-thresholds", "ablation-ecc", "ablation-fnw",
}

// experimentList is experimentNames for usage and error text.
var experimentList = strings.Join(experimentNames, " ") + " all"

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: figures [flags] <experiment>\n\nexperiments: %s\n\nflags:\n", experimentList)
		fs.PrintDefaults()
	}
	scaleName := fs.String("scale", "quick", "substrate scale: quick, default, or large")
	seed := fs.Uint64("seed", 1, "experiment seed")
	seeds := fs.Int("seeds", 1, "seeds for the lifetime experiments (mean and 95% CI when > 1)")
	trials := fs.Int("trials", 3000, "Monte-Carlo trials per Fig 9 point (the default matches results/fig9.txt)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one experiment name, one of: %s", experimentList)
	}
	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	opts := experiments.LifetimeOptions{Scale: scale, Seed: *seed}

	name := fs.Arg(0)
	if name == "all" {
		for _, exp := range experimentNames {
			if err := runOne(exp, scale, opts, *seed, *seeds, *trials); err != nil {
				return fmt.Errorf("%s: %w", exp, err)
			}
			fmt.Println()
		}
		return nil
	}
	return runOne(name, scale, opts, *seed, *seeds, *trials)
}

func scaleByName(name string) (config.Scale, error) { return config.ByName(name) }

func runOne(name string, scale config.Scale, opts experiments.LifetimeOptions, seed uint64, seeds, trials int) error {
	lines, events := scale.TraceLines, scale.TraceEvents
	switch name {
	case "fig1":
		s, err := experiments.Fig1BitFlips("gobmk", 64, 10*events, 128, seed)
		if err != nil {
			return err
		}
		fmt.Print(stats.RenderSeries(
			"Figure 1: DW bit flips per write, one hot 64B block (gobmk)",
			"write#", []stats.Series{s}))
	case "fig3":
		return printTable(experiments.Fig3CompressedSizes(lines, events, seed))
	case "fig5":
		return printTable(experiments.Fig5FlipDelta(lines, events, seed))
	case "fig6":
		return printTable(experiments.Fig6SizeChange(lines/4+1, events, seed))
	case "fig7":
		for _, app := range []string{"bzip2", "hmmer"} {
			series, err := experiments.Fig7SizeSeries(app, 64, 10*events, 3, 40, seed)
			if err != nil {
				return err
			}
			fmt.Print(stats.RenderSeries(
				"Figure 7: compressed size of consecutive writes ("+app+")",
				"write#", series))
			fmt.Println()
		}
	case "fig9":
		for _, scheme := range []string{"ecp", "safer", "aegis"} {
			series, err := experiments.Fig9Failure(scheme, 128, trials, seed)
			if err != nil {
				return err
			}
			fmt.Print(stats.RenderSeries(
				"Figure 9 ("+scheme+"): failure probability vs injected faults",
				"#errors", series))
			fmt.Println()
		}
		return printTable(experiments.Fig9Tolerance(60, trials, seed))
	case "fig10":
		return printSeeded(seeds, opts, experiments.Fig10Lifetimes)
	case "fig11":
		for _, app := range []string{"gcc", "milc"} {
			s, err := experiments.Fig11MaxSizeCDF(app, 512, 10*events, seed)
			if err != nil {
				return err
			}
			fmt.Print(stats.RenderSeries(
				"Figure 11: CDF of max compressed size per address ("+app+")",
				"bytes", []stats.Series{s}))
			fmt.Println()
		}
	case "fig12":
		return printSeeded(seeds, opts, experiments.Fig12RecoveredCells)
	case "fig13":
		return printSeeded(seeds, opts, experiments.Fig13HighVariation)
	case "table3":
		return printTable(experiments.Table3(lines, events, seed))
	case "table4":
		return printSeeded(seeds, opts, experiments.Table4Months)
	case "perf":
		return printTable(experiments.PerfOverhead(lines, events, 8000, seed))
	case "secded":
		return printTable(experiments.SECDEDComparison(opts))
	case "ablation-sc":
		return printTable(experiments.AblationSCHeuristic(opts))
	case "ablation-thresholds":
		return printTable(experiments.AblationThresholds(opts))
	case "ablation-ecc":
		return printTable(experiments.AblationECCScheme(opts))
	case "ablation-fnw":
		return printTable(experiments.AblationFNW(opts))
	case "energy":
		return printTable(experiments.EnergyComparison(opts, uint64(events)*10))
	case "uncorrectable":
		// The budget must be deep enough for the Baseline to accumulate
		// failures at this scale (it fails around lines*endurance*512 /
		// flips-per-write cell programs).
		base, wf, err := experiments.UncorrectableReduction(opts, "milc", uint64(events)*300)
		if err != nil {
			return err
		}
		fmt.Printf("Uncorrectable errors over an equal write budget (milc):\n")
		fmt.Printf("  Baseline: %d\n  Comp+WF:  %d\n", base, wf)
		if base > 0 {
			fmt.Printf("  Reduction: %.1f%%  (paper: ~90%%)\n", 100*(1-float64(wf)/float64(base)))
		}
	default:
		return fmt.Errorf("unknown experiment %q, want one of: %s", name, experimentList)
	}
	return nil
}

// printSeeded runs a lifetime experiment across one or more seeds,
// printing mean and 95% CI tables when more than one seed is requested.
func printSeeded(seeds int, opts experiments.LifetimeOptions,
	build func(experiments.LifetimeOptions) (*stats.Table, error)) error {
	if seeds <= 1 {
		return printTable(build(opts))
	}
	mean, ci, err := experiments.Aggregate(experiments.Seeds(opts.Seed, seeds),
		func(seed uint64) (*stats.Table, error) {
			o := opts
			o.Seed = seed
			return build(o)
		})
	if err != nil {
		return err
	}
	fmt.Print(mean.String())
	fmt.Println()
	fmt.Print(ci.String())
	return nil
}

func printTable(t *stats.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(t.String())
	return nil
}
