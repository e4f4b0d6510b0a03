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
// and -fnw override its hard-error scheme and write encoder, and the
// controller is built with scheme.Spec.ControllerConfig — the same builder
// a pcmd lifetime job uses, so both report the same demand writes for the
// same app, scale and seed. Rows are labeled with the preset name.
//
// -trace replays a recorded trace instead of generating one; the encoding
// is sniffed from its contents (binary .pcmt, PCMS stream, gzip of either,
// or NDJSON), as trace.Decode describes.
//
// Ctrl-C (or SIGTERM) interrupts the replay at the next check interval and
// prints the statistics accumulated so far before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"pcmcomp/internal/config"
	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/scheme"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lifetime:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("lifetime", flag.ContinueOnError)
	app := fs.String("app", "gcc", "workload profile name")
	system := fs.String("system", "all", "baseline, comp, comp+w, comp+wf, or all")
	scaleName := fs.String("scale", "quick", "substrate scale: quick, default, or large")
	traceFile := fs.String("trace", "", "replay a trace file (binary, stream, gzip, or NDJSON) instead of generating one")
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

	systems, err := resolveSystems(*system, *eccName, *useFNW)
	if err != nil {
		return err
	}

	var events []trace.Event
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if events, err = trace.Decode(f); err != nil {
			return err
		}
	} else {
		gen, err := workload.NewGenerator(prof, scale.TraceLines, *seed)
		if err != nil {
			return err
		}
		events = gen.GenerateTrace(scale.TraceEvents)
	}

	var baseline lifetime.Result
	for i, sys := range systems {
		ctrl, err := sys.spec.ControllerConfig(scale.Substrate(*seed))
		if err != nil {
			return err
		}
		cfg := lifetime.DefaultConfig(ctrl)
		res, err := lifetime.RunContext(ctx, cfg, events)
		interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if err != nil && !interrupted {
			return err
		}
		tm := lifetime.DefaultTimeModel(prof.WPKI, scale.EnduranceScale(), scale.CapacityScale())
		fmt.Printf("%-9s demand writes %12d  replays %6d  projected %7.1f months",
			sys.name, res.DemandWrites, res.Replays, tm.Months(res.DemandWrites))
		switch {
		case interrupted:
			fmt.Printf("  (interrupted)\n")
		case i == 0:
			baseline = res
			fmt.Printf("  (reference)\n")
		default:
			fmt.Printf("  %5.2fx\n", res.Normalized(baseline))
		}
		s := res.Stats
		fmt.Printf("          flips %d, uncorrectable %d, resurrections %d, gap moves %d, rotations %d\n",
			s.BitFlips, s.UncorrectableErrors, s.Resurrections, s.GapMovements, s.Rotations)
		if interrupted {
			return fmt.Errorf("interrupted, stats above are partial: %w", err)
		}
	}
	return nil
}

// labeledSpec is one lifetime run: a registry preset's name and its spec with
// the -ecc and -fnw overrides applied.
type labeledSpec struct {
	name string
	spec scheme.Spec
}

// resolveSystems looks up the -system preset (every preset for "all") and
// sets the -ecc scheme and, with -fnw, the Flip-N-Write encoder on each.
func resolveSystems(name, eccName string, fnw bool) ([]labeledSpec, error) {
	presets := scheme.Presets()
	if name != "all" {
		p, err := scheme.PresetByName(name)
		if err != nil {
			return nil, err
		}
		presets = []scheme.Preset{p}
	}
	e, _, err := scheme.ECCByName(eccName)
	if err != nil {
		return nil, err
	}
	out := make([]labeledSpec, len(presets))
	for i, p := range presets {
		sp, err := scheme.Parse(p.Spec)
		if err != nil {
			return nil, err
		}
		sp.ECC = e.Name
		if fnw {
			sp.Enc = "fnw"
		}
		out[i] = labeledSpec{p.Name, sp}
	}
	return out, nil
}
