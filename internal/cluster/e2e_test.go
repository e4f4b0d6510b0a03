package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/server"
)

// shardHold holds the fleet's first shard submission inside the backend
// that received it until the test has picked that backend as its victim,
// and lets every later submission through. A shard is then in flight at
// the kill however fast shards run. A killed backend aborts every
// request, the held one included, as a dead process would.
type shardHold struct {
	claimed atomic.Bool
	held    chan int // the index of the backend holding the first shard
	release chan struct{}
	killed  [3]atomic.Bool
}

func newShardHold() *shardHold {
	return &shardHold{held: make(chan int, 1), release: make(chan struct{})}
}

// wrap serves backend i's handler behind the hold.
func (h *shardHold) wrap(i int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
			h.claimed.CompareAndSwap(false, true) {
			h.held <- i
			select {
			case <-h.release:
			case <-r.Context().Done():
			}
		}
		if h.killed[i].Load() {
			panic(http.ErrAbortHandler) // drop the connection unanswered
		}
		next.ServeHTTP(w, r)
	})
}

// TestKillBackendMidSweepRedispatches is the fleet e2e: three real pcmd
// services behind httptest, one killed while it has a shard in flight. The
// coordinator must re-dispatch the orphaned shards to the survivors and the
// merged result must still be byte-identical to a local (loopback) run.
func TestKillBackendMidSweepRedispatches(t *testing.T) {
	req := cluster.SweepRequest{
		Kind: cluster.KindFailureProbability,
		// A shard runs in about a millisecond; the hold, not the shard's
		// cost, keeps one in flight at the kill.
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
	hold := newShardHold()
	var tss [3]*httptest.Server
	var backends []cluster.Backend
	for i := range tss {
		s := server.New(server.Config{Workers: 2, QueueDepth: 32, JobTimeout: time.Minute, CacheEntries: -1})
		tss[i] = httptest.NewServer(hold.wrap(i, s))
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}()
		b := cluster.NewHTTPBackend(tss[i].URL)
		// Fail fast on the killed backend so the coordinator's retry, not the
		// client's transport retry, does the recovering.
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

	// Kill the backend holding the first shard: mark it dead, cut its
	// connections, release the held request, and close the server.
	var victim int
	var out sweepOut
	select {
	case victim = <-hold.held:
	case out = <-done:
		t.Fatalf("sweep ended before any shard was submitted: %v", out.err)
	}
	hold.killed[victim].Store(true)
	tss[victim].CloseClientConnections()
	close(hold.release)
	tss[victim].Close()
	t.Logf("killed backend %d (%s)", victim, backends[victim].Name())

	out = <-done
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
