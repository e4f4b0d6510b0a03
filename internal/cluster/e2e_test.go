package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/server"
)

// TestKillBackendMidSweepRedispatches is the fleet e2e: three real pcmd
// services behind httptest, one killed while it has shards in flight. The
// coordinator must re-dispatch the orphaned shards to the survivors and the
// merged result must still be byte-identical to a local (loopback) run.
func TestKillBackendMidSweepRedispatches(t *testing.T) {
	req := cluster.SweepRequest{
		Kind: cluster.KindFailureProbability,
		// ~50-100ms per shard: long enough to catch a backend mid-shard,
		// short enough to keep the test quick.
		Params:    map[string]any{"scheme": "ecp", "window": 16, "max_errors": 8, "trials": 150000},
		SeedStart: 1, SeedCount: 8,
	}

	// The unsharded reference result.
	refCoord, err := cluster.New(localBackends(1), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := refCoord.SweepWithHooks(context.Background(), req, cluster.SweepHooks{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(refRes)
	if err != nil {
		t.Fatal(err)
	}

	// A fleet of three real daemons.
	var tss [3]*httptest.Server
	var backends []cluster.Backend
	for i := range tss {
		s := server.New(server.Config{Workers: 2, QueueDepth: 32, JobTimeout: time.Minute, CacheEntries: -1})
		tss[i] = httptest.NewServer(s)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}()
		b := cluster.NewHTTPBackend(tss[i].URL, 1)
		// Fail fast on the killed backend so the coordinator's retry, not the
		// client's transport retry, does the recovering.
		b.Client.PollInterval = 2 * time.Millisecond
		b.Client.MaxRetries = 1
		b.Client.BaseBackoff = 2 * time.Millisecond
		b.Client.MaxBackoff = 10 * time.Millisecond
		backends = append(backends, b)
	}
	defer func() {
		for _, ts := range tss {
			ts.Close()
		}
	}()

	coord, err := cluster.New(backends, cluster.Options{
		MaxRetries: 4, Concurrency: 6, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	type sweepOut struct {
		res *cluster.SweepResult
		err error
	}
	done := make(chan sweepOut, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go func() {
		res, err := coord.SweepWithHooks(ctx, req, cluster.SweepHooks{})
		done <- sweepOut{res, err}
	}()

	// Kill the first backend seen with a shard in flight.
	victim := -1
	deadline := time.Now().Add(30 * time.Second)
	for victim < 0 {
		if time.Now().After(deadline) {
			t.Fatal("no backend ever had a shard in flight")
		}
		for i, st := range coord.Backends() {
			if st.Inflight > 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			time.Sleep(500 * time.Microsecond)
		}
	}
	tss[victim].CloseClientConnections()
	tss[victim].Close()
	t.Logf("killed backend %d (%s)", victim, backends[victim].Name())

	out := <-done
	if out.err != nil {
		t.Fatalf("sweep after backend kill: %v", out.err)
	}
	got, err := json.Marshal(out.res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("re-dispatched sweep differs from local reference\nlocal: %s\nfleet: %s", ref, got)
	}
	snap := coord.Metrics()
	if snap.Retries == 0 && snap.ShardFailures == 0 {
		t.Error("killed a loaded backend but saw no shard failures or retries")
	}
	t.Logf("metrics after kill: %+v", snap)
}
