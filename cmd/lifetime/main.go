// Command lifetime runs the trace-driven PCM lifetime simulation for one
// workload under one or all of the paper's four systems, reporting demand
// writes to failure, projected months, and controller statistics.
//
// Usage:
//
//	lifetime -app milc [-system all|baseline|comp|comp+w|comp+wf]
//	         [-ecc ecp|safer|aegis|secded] [-fnw]
//	         [-scale quick|default|large] [-trace file] [-seed N]
//
// Each system is a preset of the scheme registry (internal/scheme); -ecc
// and -fnw override its hard-error scheme and write encoder. The systems
// are the rows of one experiments.LifetimeRuns set (one trace, the first
// system as reference, no cap factor, one run per CPU), the runner of the
// lifetime tables and pcmd lifetime jobs, so the CLI and a job report the
// same demand writes for the same app, scale and seed. The rows, labeled
// with the preset name, print together once every run has ended.
//
// -trace replays a recorded trace instead of generating one. The encoding
// is sniffed from its contents (binary .pcmt, gzip-wrapped .pcmt, or
// NDJSON), as trace.Decode describes. Addresses are densified by first
// appearance (workload.NewReplay), the rule a pcmd lifetime job applies
// to an uploaded trace, so the CLI and a job on that trace's digest
// report the same demand writes.
//
// Ctrl-C (or SIGTERM) stops the runs at the next check interval, and no
// further run starts. The rows print in order up to the first one cut,
// which shows the statistics accumulated so far (zero if it had not
// started) marked "(interrupted)", and the command exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"pcmcomp/internal/config"
	"pcmcomp/internal/experiments"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/scheme"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lifetime:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lifetime", flag.ContinueOnError)
	app := fs.String("app", "gcc", "workload profile name")
	system := fs.String("system", "all", "baseline, comp, comp+w, comp+wf, or all")
	scaleName := fs.String("scale", "quick", "substrate scale: quick, default, or large")
	traceFile := fs.String("trace", "", "replay a trace file (binary, gzip-wrapped binary, or NDJSON) instead of generating one")
	seed := fs.Uint64("seed", 1, "seed")
	eccName := fs.String("ecc", "ecp", "hard-error scheme: ecp, safer, aegis, or secded")
	useFNW := fs.Bool("fnw", false, "use Flip-N-Write instead of plain differential writes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale, err := config.ByName(*scaleName)
	if err != nil {
		return err
	}

	prof, err := workload.ByName(*app)
	if err != nil {
		return err
	}

	names, rows, err := resolveSystems(*system, *eccName, *useFNW)
	if err != nil {
		return err
	}

	tr := experiments.AppTrace(prof.Name, scale, *seed)
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		raw, err := trace.Decode(f)
		if err != nil {
			return err
		}
		rep, err := workload.NewReplay(raw)
		if err != nil {
			return err
		}
		tr = experiments.LifetimeTrace{Events: rep.Events()}
	}

	set := experiments.LifetimeRuns{Traces: []experiments.LifetimeTrace{tr}, Rows: rows, Memory: scale.Substrate(*seed)}
	runs, _ := set.Run(ctx) // each run's own error is reported below, in row order
	tm := lifetime.DefaultTimeModel(prof.WPKI, scale.EnduranceScale(), scale.CapacityScale())
	for i, res := range runs[0] {
		interrupted := errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded)
		if res.Err != nil && !interrupted {
			return res.Err
		}
		fmt.Fprintf(stdout, "%-9s demand writes %12d  replays %6d  projected %7.1f months",
			names[i], res.DemandWrites, res.Replays, tm.Months(res.DemandWrites))
		switch {
		case interrupted:
			fmt.Fprintf(stdout, "  (interrupted)\n")
		case i == 0:
			fmt.Fprintf(stdout, "  (reference)\n")
		default:
			fmt.Fprintf(stdout, "  %5.2fx\n", res.Normalized(runs[0][0].Result))
		}
		s := res.Stats
		fmt.Fprintf(stdout, "          flips %d, uncorrectable %d, resurrections %d, gap moves %d, rotations %d\n",
			s.BitFlips, s.UncorrectableErrors, s.Resurrections, s.GapMovements, s.Rotations)
		if interrupted {
			return fmt.Errorf("interrupted, stats above are partial: %w", res.Err)
		}
	}
	return nil
}

// resolveSystems looks up the -system preset (every preset for "all") and
// returns each one's name and row, its spec with the -ecc scheme and, with
// -fnw, the Flip-N-Write encoder set.
func resolveSystems(name, eccName string, fnw bool) (names []string, rows []experiments.Row, err error) {
	presets := scheme.Presets()
	if name != "all" {
		p, err := scheme.PresetByName(name)
		if err != nil {
			return nil, nil, err
		}
		presets = []scheme.Preset{p}
	}
	e, _, err := scheme.ECCByName(eccName)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range presets {
		sp, err := scheme.Parse(p.Spec)
		if err != nil {
			return nil, nil, err
		}
		sp.ECC = e.Name
		if fnw {
			sp.Enc = "fnw"
		}
		names, rows = append(names, p.Name), append(rows, experiments.Row{Spec: sp})
	}
	return names, rows, nil
}
