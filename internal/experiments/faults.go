package experiments

import (
	"fmt"
	"slices"
	"strings"

	"pcmcomp/internal/compress"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/montecarlo"
	"pcmcomp/internal/perfmodel"
	"pcmcomp/internal/rng"
	"pcmcomp/internal/scheme"
	"pcmcomp/internal/stats"
	"pcmcomp/internal/workload"
)

// Fig9Windows are the compressed-data sizes the paper sweeps in Figure 9.
var Fig9Windows = []int{1, 8, 16, 20, 24, 32, 34, 36, 40, 64}

// fig9Schemes are the paper's three Fig 9 schemes, in the spelling the
// Monte-Carlo CLI and failure-probability jobs accept.
var fig9Schemes = []string{"ecp", "safer", "aegis"}

// Fig9Scheme builds one of the paper's three evaluated schemes by name —
// "ecp", "safer", or "aegis" — through the scheme registry.
func Fig9Scheme(name string) (ecc.Scheme, error) {
	if !slices.Contains(fig9Schemes, name) {
		return nil, fmt.Errorf("experiments: unknown scheme %q (want %s)", name, strings.Join(fig9Schemes, ", "))
	}
	_, s, err := scheme.ECCByName(name)
	return s, err
}

// Fig9Failure reproduces one panel of Figure 9: failure probability versus
// injected error count (1..maxErrors), one series per window size. The
// paper runs 100,000 injections per point; trials trades precision for
// time.
func Fig9Failure(schemeName string, maxErrors, trials int, seed uint64) ([]stats.Series, error) {
	scheme, err := Fig9Scheme(schemeName)
	if err != nil {
		return nil, err
	}
	out := make([]stats.Series, 0, len(Fig9Windows))
	for _, w := range Fig9Windows {
		curve, err := montecarlo.Curve(scheme, w, maxErrors, trials, seed)
		if err != nil {
			return nil, err
		}
		s := stats.Series{Name: fmt.Sprintf("%dB", w)}
		for e, p := range curve {
			s.Append(float64(e+1), p)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig9Tolerance reports, per scheme, the fault count tolerable at 0.5
// failure probability for a 32-byte window — the paper's quoted comparison
// (ECP-6 ~18, SAFER ~38, Aegis ~41).
func Fig9Tolerance(maxErrors, trials int, seed uint64) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 9 summary: tolerable faults at p=0.5, 32B window",
		Columns: []string{"faults@p0.5"},
	}
	for _, name := range fig9Schemes {
		sch, err := Fig9Scheme(name)
		if err != nil {
			return nil, err
		}
		curve, err := montecarlo.Curve(sch, 32, maxErrors, trials, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(sch.Name(), float64(montecarlo.TolerableAt(curve, 0.5)))
	}
	return t, nil
}

// PerfOverhead reproduces §V-B: the average read-latency increase caused by
// decompression and the resulting slowdown estimate, per application. The
// compressed fraction and BDI/FPC split come from the app's generated
// write-back stream.
func PerfOverhead(lines, eventsPerApp, requests int, seed uint64) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Section V-B: performance overhead of decompression",
		Columns: []string{"readLat+%", "slowdown%"},
	}
	cfg := perfmodel.DefaultConfig()
	var sumLat, sumSlow float64
	for _, app := range FigureOrder {
		p, err := profileFor(app)
		if err != nil {
			return nil, err
		}
		g, err := workload.NewGenerator(p, lines, seed)
		if err != nil {
			return nil, err
		}
		// Measure the stream's encoding mix in the three latency
		// categories of Table I.
		var comp compress.Compressor
		var bdi, fpcN, raw int
		for i := 0; i < eventsPerApp; i++ {
			ev := g.Next()
			switch comp.Compress(&ev.Data).Encoding {
			case compress.EncFPC:
				fpcN++
			case compress.EncUncompressed:
				raw++
			default:
				bdi++
			}
		}
		total := bdi + fpcN + raw
		// Build a request stream with that mix.
		r := rng.New(seed + 1)
		reqs := make([]perfmodel.Request, 0, requests)
		clock := 0.0
		for i := 0; i < requests; i++ {
			clock += float64(r.Intn(220))
			decomp := 0
			roll := r.Intn(total)
			switch {
			case roll < bdi:
				decomp = 1
			case roll < bdi+fpcN:
				decomp = 5
			}
			reqs = append(reqs, perfmodel.Request{
				ArrivalCPUCycle:        clock,
				Bank:                   r.Intn(cfg.Banks),
				Write:                  r.Intn(3) == 0,
				DecompressionCPUCycles: decomp,
			})
		}
		res, err := perfmodel.Simulate(cfg, reqs)
		if err != nil {
			return nil, err
		}
		extra := res.AvgReadLatencyCPU - res.AvgReadLatencyBaseCPU
		slow := perfmodel.SlowdownEstimate(extra, 2, 1.5)
		t.AddRow(app, 100*res.ReadLatencyIncrease, 100*slow)
		sumLat += 100 * res.ReadLatencyIncrease
		sumSlow += 100 * slow
	}
	n := float64(len(FigureOrder))
	t.AddRow("Average", sumLat/n, sumSlow/n)
	return t, nil
}
