package experiments

import (
	"strconv"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/stats"
	"pcmcomp/internal/workload"
)

// Fig1BitFlips reproduces Figure 1: the per-write DW bit-flip counts of
// consecutive writes to one hot 64-byte block (the paper uses gobmk),
// showing the randomness of bit-level updates under differential writes.
func Fig1BitFlips(app string, lines, traceEvents, samples int, seed uint64) (stats.Series, error) {
	g, err := generatorFor(app, lines, seed)
	if err != nil {
		return stats.Series{}, err
	}
	events := g.GenerateTrace(traceEvents)
	hot := hottestAddr(events)

	s := stats.Series{Name: app + " hot block"}
	var stored block.Block
	first := true
	for i := range events {
		if events[i].Addr != hot {
			continue
		}
		if first {
			stored = events[i].Data
			first = false
			continue
		}
		flips := dwFlips(&stored, &events[i].Data)
		stored = events[i].Data
		s.Append(float64(len(s.X)+1), float64(flips))
		if len(s.X) >= samples {
			break
		}
	}
	return s, nil
}

// CompressedSizes is one application's row of Figure 3: the mean stored
// size, in bytes, of its write-backs under BDI alone, FPC alone, and BEST
// of the two.
type CompressedSizes struct {
	BDI, FPC, Best float64
}

// AppCompressedSizes measures one application's Figure 3 row over the
// first events write-backs of its generator. progress, when non-nil, is
// called with the number of events done before every 4096th event.
func AppCompressedSizes(app string, lines, events int, seed uint64, progress func(done int)) (CompressedSizes, error) {
	g, err := generatorFor(app, lines, seed)
	if err != nil {
		return CompressedSizes{}, err
	}
	var best compress.Compressor
	bdiOnly := compress.Compressor{DisableFPC: true}
	fpcOnly := compress.Compressor{DisableBDI: true}
	var aBDI, aFPC, aBest stats.Running
	for i := 0; i < events; i++ {
		if progress != nil && i%4096 == 0 {
			progress(i)
		}
		ev := g.Next()
		aBDI.Add(float64(bdiOnly.Compress(&ev.Data).Size()))
		aFPC.Add(float64(fpcOnly.Compress(&ev.Data).Size()))
		aBest.Add(float64(best.Compress(&ev.Data).Size()))
	}
	return CompressedSizes{BDI: aBDI.Mean(), FPC: aFPC.Mean(), Best: aBest.Mean()}, nil
}

// Fig3CompressedSizes reproduces Figure 3: the average compressed data size
// per application for BDI alone, FPC alone, and BEST of the two. The paper
// reports a BEST average compression ratio of ~0.43 (27.5 bytes).
func Fig3CompressedSizes(lines, eventsPerApp int, seed uint64) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 3: average compressed data size (bytes, 64B lines)",
		Columns: []string{"BDI", "FPC", "BEST"},
	}
	var sumBDI, sumFPC, sumBest float64
	for _, app := range FigureOrder {
		s, err := AppCompressedSizes(app, lines, eventsPerApp, seed, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(app, s.BDI, s.FPC, s.Best)
		sumBDI += s.BDI
		sumFPC += s.FPC
		sumBest += s.Best
	}
	n := float64(len(FigureOrder))
	t.AddRow("Average", sumBDI/n, sumFPC/n, sumBest/n)
	return t, nil
}

// Fig5FlipDelta reproduces Figure 5: the percentage of write-backs whose DW
// bit-flip count increases, stays within +/-5%, or decreases when the data
// is stored compressed instead of raw. The paper reports ~20% of writes
// increasing overall, concentrated in low-CR and size-unstable apps.
func Fig5FlipDelta(lines, eventsPerApp int, seed uint64) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 5: write-backs with increased/untouched/decreased bit flips after compression (%)",
		Columns: []string{"Increased", "Untouched", "Decreased"},
	}
	var totInc, totUnt, totDec float64
	for _, app := range FigureOrder {
		g, err := generatorFor(app, lines, seed)
		if err != nil {
			return nil, err
		}
		var comp compress.Compressor
		rawStored := make(map[int]*block.Block)
		compStored := make(map[int]*block.Block)
		inc, unt, dec, n := 0, 0, 0, 0
		for i := 0; i < eventsPerApp; i++ {
			ev := g.Next()
			rs, ok := rawStored[ev.Addr]
			if !ok {
				// First write to the line: initialize both shadows.
				rb, cb := ev.Data, block.Block{}
				rawStored[ev.Addr] = &rb
				compressedFlips(&comp, &cb, &ev.Data)
				compStored[ev.Addr] = &cb
				continue
			}
			rawFlips := dwFlips(rs, &ev.Data)
			*rs = ev.Data
			compFlips, _ := compressedFlips(&comp, compStored[ev.Addr], &ev.Data)
			n++
			switch {
			case float64(compFlips) > 1.05*float64(rawFlips):
				inc++
			case float64(compFlips) < 0.95*float64(rawFlips):
				dec++
			default:
				unt++
			}
		}
		if n == 0 {
			n = 1
		}
		pi, pu, pd := 100*float64(inc)/float64(n), 100*float64(unt)/float64(n), 100*float64(dec)/float64(n)
		t.AddRow(app, pi, pu, pd)
		totInc += pi
		totUnt += pu
		totDec += pd
	}
	k := float64(len(FigureOrder))
	t.AddRow("Average", totInc/k, totUnt/k, totDec/k)
	return t, nil
}

// Fig6SizeChange reproduces Figure 6: the probability that two consecutive
// writes to the same block differ in compressed size.
func Fig6SizeChange(lines, eventsPerApp int, seed uint64) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 6: P(consecutive writes to a block change compressed size)",
		Columns: []string{"P(change)"},
	}
	var sum float64
	for _, app := range FigureOrder {
		g, err := generatorFor(app, lines, seed)
		if err != nil {
			return nil, err
		}
		var comp compress.Compressor
		lastSize := make(map[int]int)
		changes, pairs := 0, 0
		for i := 0; i < eventsPerApp; i++ {
			ev := g.Next()
			size := comp.Compress(&ev.Data).Size()
			if prev, ok := lastSize[ev.Addr]; ok {
				pairs++
				if prev != size {
					changes++
				}
			}
			lastSize[ev.Addr] = size
		}
		p := 0.0
		if pairs > 0 {
			p = float64(changes) / float64(pairs)
		}
		t.AddRow(app, p)
		sum += p
	}
	t.AddRow("Average", sum/float64(len(FigureOrder)))
	return t, nil
}

// Fig7SizeSeries reproduces Figure 7: the compressed-size time series of
// consecutive writes to representative blocks (the paper contrasts bzip2's
// unstable sizes with hmmer's stable ones).
func Fig7SizeSeries(app string, lines, traceEvents, blocks, samples int, seed uint64) ([]stats.Series, error) {
	g, err := generatorFor(app, lines, seed)
	if err != nil {
		return nil, err
	}
	events := g.GenerateTrace(traceEvents)
	hot := hottestAddrs(events, blocks)
	var comp compress.Compressor
	out := make([]stats.Series, len(hot))
	for i, addr := range hot {
		out[i].Name = app + "/block" + strconv.Itoa(i+1)
		for j := range events {
			if events[j].Addr != addr {
				continue
			}
			size := comp.Compress(&events[j].Data).Size()
			out[i].Append(float64(len(out[i].X)+1), float64(size))
			if len(out[i].X) >= samples {
				break
			}
		}
	}
	return out, nil
}

// Fig11MaxSizeCDF reproduces Figure 11: the CDF over memory addresses of
// the largest compressed size ever written to each address (gcc vs milc in
// the paper).
func Fig11MaxSizeCDF(app string, lines, traceEvents int, seed uint64) (stats.Series, error) {
	g, err := generatorFor(app, lines, seed)
	if err != nil {
		return stats.Series{}, err
	}
	var comp compress.Compressor
	maxSize := make(map[int]int)
	for i := 0; i < traceEvents; i++ {
		ev := g.Next()
		size := comp.Compress(&ev.Data).Size()
		if size > maxSize[ev.Addr] {
			maxSize[ev.Addr] = size
		}
	}
	hist := stats.NewHistogram(block.Size + 1)
	for _, s := range maxSize {
		hist.Add(s)
	}
	out := stats.Series{Name: app}
	for s := 0; s <= block.Size; s += 4 {
		out.Append(float64(s), hist.CDF(s))
	}
	return out, nil
}

// Table3 reproduces Table III: per-application WPKI (from the calibrated
// profiles) and the measured BEST compression ratio of the generated
// write-back stream.
func Table3(lines, eventsPerApp int, seed uint64) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table III: workload characteristics",
		Columns: []string{"WPKI", "CR(paper)", "CR(measured)"},
	}
	for _, app := range FigureOrder {
		p, err := profileFor(app)
		if err != nil {
			return nil, err
		}
		g, err := workload.NewGenerator(p, lines, seed)
		if err != nil {
			return nil, err
		}
		var comp compress.Compressor
		var acc stats.Running
		for i := 0; i < eventsPerApp; i++ {
			ev := g.Next()
			acc.Add(comp.Compress(&ev.Data).Ratio())
		}
		t.AddRow(app+" ("+p.Class.String()+")", p.WPKI, p.CR, acc.Mean())
	}
	return t, nil
}
