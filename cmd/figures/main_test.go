package main

import (
	"strings"
	"testing"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "large"} {
		if _, err := scaleByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := scaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestBadArgs(t *testing.T) {
	// A missing or unknown experiment is refused with an error that names
	// the valid ones.
	for _, args := range [][]string{{}, {"bogus"}, {"fig10", "fig12"}} {
		err := run(args)
		if err == nil {
			t.Errorf("%q accepted", args)
			continue
		}
		for _, want := range []string{"fig10", "secded", "ablation-fnw", "all"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%q: error %q does not name experiment %q", args, err, want)
			}
		}
	}
	if err := run([]string{"-scale", "bogus", "fig3"}); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestLightExperiments(t *testing.T) {
	// The fast experiments run end-to-end through the CLI; the heavy
	// lifetime/fig9 paths are covered by internal/experiments tests.
	for _, exp := range []string{"fig1", "fig3", "fig6", "fig7", "table3", "perf"} {
		if err := run([]string{"-scale", "quick", exp}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}
