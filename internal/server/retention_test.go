package server

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/pcmclient"
)

// retentionBudget bounds the heap one finished trace-driven sweep leaves
// behind across a coordinator and its two peers: job and sweep documents,
// their timelines and spans, and the cached results, all of which stay
// until the registries, rings and caches reach their bounds. It is the
// measured 24.4 KB plus 15%; the same test read 44.3 KB per sweep when
// event fields and span attributes were maps and every finished job kept
// its progress ticks and run state.
const retentionBudget = 24_400 * 115 / 100

// TestSweepRetentionPerSweep measures what each finished sweep retains: a
// coordinator and two peers run 3-scheme x 2-seed lifetime sweeps over one
// uploaded trace, and the live heap after a GC is read at sweep 20 and at
// sweep 120. The job and sweep registries and the trace rings hold far
// more than 120 sweeps, so the growth between the two reads is the
// per-sweep retention. (The peers' result caches fill near sweep 85, but
// their results stay with the finished jobs.)
func TestSweepRetentionPerSweep(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("runs 120 sweeps")
	}
	const (
		first = 20
		last  = 120
	)
	_, bin := makeTraceBytes(t, 400, 3)
	var peers []string
	for i := 0; i < 2; i++ {
		p := New(Config{Workers: 1, ScrapeInterval: -1})
		pts := httptest.NewServer(p)
		t.Cleanup(func() { pts.Close(); shutdownServer(p) })
		peers = append(peers, pts.URL)
	}
	coordTS := httptest.NewUnstartedServer(nil)
	coord := New(Config{Workers: 6, Peers: peers, AdvertiseURL: "http://" + coordTS.Listener.Addr().String(), ScrapeInterval: -1})
	coordTS.Config.Handler = coord
	coordTS.Start()
	t.Cleanup(func() { coordTS.Close(); shutdownServer(coord) })
	up, _ := uploadTrace(t, coordTS.URL, bin)

	c := pcmclient.New(coordTS.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sweep := func(i int) {
		sw, err := c.SubmitSweep(ctx, cluster.SweepRequest{
			Kind:      cluster.KindLifetime,
			Params:    map[string]any{"trace": up.Trace.Digest, "max_demand_writes": 300},
			SeedStart: uint64(1 + 2*i), SeedCount: 2,
			Schemes: []string{"baseline", "comp+wf", "comp=bdi+fpc,ecc=ecp6,enc=coset4,wl=startgap+intraline,res=on"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sw.Terminal() {
			if sw, err = c.WatchSweep(ctx, sw.ID, nil); err != nil {
				t.Fatal(err)
			}
		}
		if sw.State != pcmclient.StateDone {
			t.Fatalf("sweep %d finished %s: %s", i, sw.State, sw.Error)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var base uint64
	for i := 0; i < last; i++ {
		if i == first {
			base = liveHeap()
		}
		sweep(i)
	}
	grown := int64(liveHeap()) - int64(base)
	per := grown / (last - first)
	t.Logf("retained %d B per sweep (%d B over %d sweeps)", per, grown, last-first)
	if per > retentionBudget {
		t.Errorf("each sweep retains %d B, budget %d B", per, retentionBudget)
	}
}
