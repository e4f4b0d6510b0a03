// Command montecarlo runs the Figure 9 fault-injection study for one
// hard-error scheme and window size, printing the failure-probability
// curve.
//
// Usage:
//
//	montecarlo -scheme ecp|safer|aegis -window 32 -max-errors 128
//	           -trials 100000 [-seed N]
//
// Ctrl-C (or SIGTERM) interrupts the sweep and prints the curve points
// computed so far before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"pcmcomp/internal/experiments"
	"pcmcomp/internal/montecarlo"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "montecarlo:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("montecarlo", flag.ContinueOnError)
	schemeName := fs.String("scheme", "ecp", "ecp, safer, or aegis")
	window := fs.Int("window", 32, "compressed-data window size in bytes (1-64)")
	maxErrors := fs.Int("max-errors", 128, "largest injected fault count")
	trials := fs.Int("trials", 100000, "injections per point (paper: 100000)")
	seed := fs.Uint64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheme, err := experiments.Fig9Scheme(*schemeName)
	if err != nil {
		return err
	}
	curve, err := montecarlo.NewRunner().AppendCurve(ctx, nil, scheme, *window, *maxErrors, *trials, *seed, nil)
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !interrupted {
		return err
	}
	fmt.Printf("# %s, %dB window, %d trials/point\n", scheme.Name(), *window, *trials)
	fmt.Println("errors  failure_probability")
	for i, p := range curve {
		fmt.Printf("%6d  %.5f\n", i+1, p)
	}
	fmt.Printf("# tolerable at p<=0.5: %d faults\n", montecarlo.TolerableAt(curve, 0.5))
	if interrupted {
		return fmt.Errorf("interrupted after %d of %d points: %w", len(curve), *maxErrors, err)
	}
	return nil
}
