package server

import (
	"context"
	"errors"
	"net/http"
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
// measured 17.4 KB plus 15%. The same test read 24.4 KB per sweep while
// the peers kept every finished shard job's document until their job
// registries' bounds, and 44.3 KB when event fields and span attributes
// were maps and every finished job kept its progress ticks and run state.
const retentionBudget = 17_400 * 115 / 100

// TestSweepRetentionPerSweep measures what each finished sweep retains: a
// coordinator and two peers run 3-scheme x 2-seed lifetime sweeps over one
// uploaded trace, and the live heap after a GC is read at sweep 20 and at
// sweep 120. The sweep registry and the trace rings hold far more than
// 120 sweeps, so the growth between the two reads is the per-sweep
// retention. The peers release each shard job once the coordinator has
// its result, and their result caches fill near sweep 85. The process's
// endurance substrates (internal/pcm) are full before sweep 20.
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

// TestPeersReleaseMergedShards pins what a peer keeps of a sweep: once the
// coordinator has a shard's result it releases the remote job, so after a
// sweep neither peer lists a job. A job submitted to a peer directly keeps
// today's lifetime: it stays pollable once done, and a DELETE of it is
// still a 409.
func TestPeersReleaseMergedShards(t *testing.T) {
	_, bin := makeTraceBytes(t, 200, 5)
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

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := pcmclient.New(coordTS.URL)
	sw, err := c.SubmitSweep(ctx, cluster.SweepRequest{
		Kind:      cluster.KindLifetime,
		Params:    map[string]any{"trace": up.Trace.Digest, "max_demand_writes": 200},
		SeedStart: 1, SeedCount: 2,
		Schemes: []string{"baseline", "comp+wf"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sw.Terminal() {
		if sw, err = c.WatchSweep(ctx, sw.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	if sw.State != pcmclient.StateDone || sw.ShardsDone != 4 {
		t.Fatalf("sweep finished %s with %d shards: %s", sw.State, sw.ShardsDone, sw.Error)
	}
	for i, url := range peers {
		list, err := pcmclient.New(url).List(ctx, pcmclient.ListOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) != 0 {
			t.Errorf("peer %d holds %d jobs after the sweep, want every shard released", i, len(list.Jobs))
		}
	}

	direct := pcmclient.New(peers[0])
	j, err := direct.Submit(ctx, "lifetime", map[string]any{"trace": up.Trace.Digest, "seed": 9, "max_demand_writes": 200, "schemes": []string{"comp+wf"}})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Terminal() {
		if j, err = direct.Watch(ctx, j.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	if j.State != pcmclient.StateDone {
		t.Fatalf("direct job finished %s: %s", j.State, j.Error)
	}
	var apiErr *pcmclient.APIError
	if _, err := direct.Cancel(ctx, j.ID); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE of a finished direct job: %v, want a 409", err)
	}
	if got, err := direct.Poll(ctx, j.ID); err != nil || got.State != pcmclient.StateDone {
		t.Fatalf("finished direct job not pollable: %v", err)
	}
}
