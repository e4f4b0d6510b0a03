package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcmcomp/internal/pcmclient"
)

// echoRun is a RunFunc that returns the shard's seed back as its result, so
// merge order is observable.
func echoRun(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
	var p struct {
		Seed uint64 `json:"seed"`
	}
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, err
	}
	return json.RawMessage(fmt.Sprintf(`{"seed":%d,"kind":%q}`, p.Seed, kind)), nil
}

func TestNormalizeDefaultsAndValidation(t *testing.T) {
	r := SweepRequest{Kind: KindLifetime}
	if err := r.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if r.SeedStart != 1 || r.SeedCount != 1 || r.Params == nil {
		t.Fatalf("defaults not applied: %+v", r)
	}

	for _, bad := range []SweepRequest{
		{},
		{Kind: "bogus"},
		{Kind: KindLifetime, SeedCount: maxSeeds + 1},
		{Kind: KindLifetime, SeedCount: -1},
		{Kind: KindLifetime, SeedStart: ^uint64(0), SeedCount: 2},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("Normalize(%+v): want error", bad)
		}
	}
}

func TestShardsCanonicalParams(t *testing.T) {
	r := SweepRequest{
		Kind:      KindCompression,
		Params:    map[string]any{"scale": "quick", "apps": []any{"milc"}, "seed": float64(99)},
		SeedStart: 5,
		SeedCount: 3,
	}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	shards, err := r.shards()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("len(shards) = %d, want 3", len(shards))
	}
	// The base "seed":99 is overridden per shard, and map marshaling sorts
	// keys so the bytes are canonical.
	want := `{"apps":["milc"],"scale":"quick","seed":6}`
	if got := string(shards[1].params); got != want {
		t.Fatalf("shard params = %s, want %s", got, want)
	}
	if shards[2].seed != 7 || shards[2].index != 2 {
		t.Fatalf("shard[2] = %+v", shards[2])
	}
}

// TestSchemeMatrixShards pins the scheme-matrix shard layout: specs are
// canonicalized at Normalize, shards enumerate scheme-major (all seeds of
// scheme 0 first), and each shard's params carry exactly its one spec.
func TestSchemeMatrixShards(t *testing.T) {
	r := SweepRequest{
		Kind:      KindLifetime,
		Params:    map[string]any{"app": "milc", "scale": "quick"},
		SeedStart: 3,
		SeedCount: 2,
		Schemes:   []string{"BASELINE", "enc=coset4,comp=bdi"},
	}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	wantSpecs := []string{"baseline", "comp=bdi,ecc=ecp6,enc=coset4,wl=startgap"}
	if len(r.Schemes) != 2 || r.Schemes[0] != wantSpecs[0] || r.Schemes[1] != wantSpecs[1] {
		t.Fatalf("canonicalized schemes = %v, want %v", r.Schemes, wantSpecs)
	}
	if r.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", r.ShardCount())
	}
	shards, err := r.shards()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("len(shards) = %d, want 4", len(shards))
	}
	for i, sh := range shards {
		wantSeed := uint64(3 + i%2)
		wantScheme := wantSpecs[i/2]
		if sh.seed != wantSeed || sh.scheme != wantScheme || sh.index != i {
			t.Fatalf("shard %d = {seed %d scheme %q index %d}, want {seed %d scheme %q index %d}",
				i, sh.seed, sh.scheme, sh.index, wantSeed, wantScheme, i)
		}
		var p map[string]any
		if err := json.Unmarshal(sh.params, &p); err != nil {
			t.Fatal(err)
		}
		got, _ := p["schemes"].([]any)
		if len(got) != 1 || got[0] != wantScheme {
			t.Fatalf("shard %d params schemes = %v, want [%q]", i, got, wantScheme)
		}
	}

	for _, bad := range []SweepRequest{
		{Kind: KindCompression, Schemes: []string{"baseline"}},
		{Kind: KindLifetime, Schemes: []string{"nonsense=1"}},
		{Kind: KindLifetime, Schemes: []string{"comp", "comp=bdi+fpc,ecc=ecp6,wl=startgap"}},
		{Kind: KindLifetime, SeedCount: maxSeeds / 2, Schemes: []string{"baseline", "comp", "comp+w"}},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("Normalize(%+v): want error", bad)
		}
	}
}

func TestSweepMergesInSeedOrder(t *testing.T) {
	// Delay shards by a decreasing amount so completion order is reversed
	// from seed order; the merged document must still be seed-ascending.
	slow := func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		var p struct {
			Seed uint64 `json:"seed"`
		}
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
		time.Sleep(time.Duration(8-p.Seed) * 5 * time.Millisecond)
		return echoRun(ctx, kind, params)
	}
	c, err := New([]Backend{NewLoopback("a", 1, slow), NewLoopback("b", 1, slow)}, Options{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	var progress atomic.Int64
	res, err := c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindCompression, SeedStart: 1, SeedCount: 6},
		SweepHooks{OnProgress: func(done, total int) {
			if total != 6 {
				t.Errorf("progress total = %d, want 6", total)
			}
			progress.Store(int64(done))
		}})
	if err != nil {
		t.Fatal(err)
	}
	if progress.Load() != 6 {
		t.Errorf("final progress = %d, want 6", progress.Load())
	}
	for i, sh := range res.Shards {
		if sh.Seed != uint64(i+1) {
			t.Fatalf("shards[%d].Seed = %d, want %d", i, sh.Seed, i+1)
		}
		want := fmt.Sprintf(`{"seed":%d,"kind":"compression"}`, i+1)
		if string(sh.Result) != want {
			t.Fatalf("shards[%d].Result = %s, want %s", i, sh.Result, want)
		}
	}
	if got := c.Metrics().Dispatched; got != 6 {
		t.Errorf("dispatched = %d, want 6", got)
	}
}

func TestReduceCurvesMeanAndThreshold(t *testing.T) {
	curve := func(pts ...float64) json.RawMessage {
		buf, _ := json.Marshal(map[string]any{"curve": pts})
		return buf
	}
	res := &SweepResult{
		Kind: KindFailureProbability,
		Shards: []ShardResult{
			{Seed: 1, Result: curve(0.0, 0.4, 1.0)},
			{Seed: 2, Result: curve(0.2, 0.8, 1.0)},
		},
	}
	if err := reduceCurves(res); err != nil {
		t.Fatal(err)
	}
	// Recompute the expected means with the same runtime float64 operations
	// (Go constant arithmetic is exact and would not match).
	want := make([]float64, 3)
	for i, pair := range [][2]float64{{0.0, 0.2}, {0.4, 0.8}, {1.0, 1.0}} {
		s := pair[0] + pair[1]
		want[i] = s / 2
	}
	for i, p := range res.MeanCurve {
		if p != want[i] {
			t.Fatalf("MeanCurve = %v, want %v", res.MeanCurve, want)
		}
	}
	// Largest error count with P <= 0.5 on the mean curve is 1.
	if res.TolerableAtHalf != 1 {
		t.Errorf("TolerableAtHalf = %d, want 1", res.TolerableAtHalf)
	}

	// Mismatched curve lengths are a merge error, not a silent truncation.
	res.Shards[1].Result = curve(0.2)
	if err := reduceCurves(res); err == nil {
		t.Error("want error for mismatched curve lengths")
	}
}

func TestRetryMovesToHealthyBackend(t *testing.T) {
	var aCalls, bCalls atomic.Int64
	flaky := NewLoopback("flaky", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		aCalls.Add(1)
		return nil, errors.New("transient backend blowup")
	})
	good := NewLoopback("good", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		bCalls.Add(1)
		return echoRun(ctx, kind, params)
	})
	c, err := New([]Backend{flaky, good}, Options{MaxRetries: 2, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 2}, SweepHooks{})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(res.Shards))
	}
	snap := c.Metrics()
	if snap.Retries == 0 {
		t.Errorf("retries = 0, want > 0 (flaky calls %d, good calls %d)", aCalls.Load(), bCalls.Load())
	}
	if snap.ShardFailures == 0 {
		t.Error("shardFailures = 0, want > 0")
	}
	if bCalls.Load() < 2 {
		t.Errorf("good backend ran %d shards, want 2", bCalls.Load())
	}
}

func TestRetriesExhaustedFailsSweep(t *testing.T) {
	bad := NewLoopback("bad", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		return nil, errors.New("kaboom")
	})
	c, err := New([]Backend{bad}, Options{MaxRetries: 1, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 1}, SweepHooks{})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want shard failure carrying the cause", err)
	}
	if got := c.Metrics().Retries; got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

func TestPermanentErrorSkipsRetry(t *testing.T) {
	var calls atomic.Int64
	bad := NewLoopback("bad", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		calls.Add(1)
		return nil, fmt.Errorf("wrapped: %w", &pcmclient.APIError{StatusCode: 400, Message: "bad params"})
	})
	c, err := New([]Backend{bad, NewLoopback("other", 1, echoRun)}, Options{MaxRetries: 3, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 1}, SweepHooks{})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, pcmclient.ErrJobFailed) {
		// A 4xx APIError is permanent but is not a JobFailed; just check
		// the retry counter below.
		_ = err
	}
	if calls.Load() != 1 {
		t.Errorf("backend called %d times, want 1 (permanent errors must not re-dispatch)", calls.Load())
	}
	if got := c.Metrics().Retries; got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}

	// A terminal remote job failure (JobFailed) is permanent too.
	var jfCalls atomic.Int64
	jf := NewLoopback("jf", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		jfCalls.Add(1)
		return nil, fmt.Errorf("backend x: %w", &pcmclient.JobFailed{Job: pcmclient.Job{ID: "j1", State: "failed", Error: "sim diverged"}})
	})
	c2, _ := New([]Backend{jf, NewLoopback("other", 1, echoRun)}, Options{MaxRetries: 3, Concurrency: 1})
	_, err = c2.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 1}, SweepHooks{})
	if !errors.Is(err, pcmclient.ErrJobFailed) {
		t.Fatalf("err = %v, want ErrJobFailed", err)
	}
	if !strings.Contains(err.Error(), "sim diverged") {
		t.Errorf("err %q does not surface the terminal job error body", err)
	}
	if jfCalls.Load() != 1 {
		t.Errorf("backend called %d times, want 1", jfCalls.Load())
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	flappy := NewLoopback("flappy", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		if failing.Load() {
			return nil, errors.New("down")
		}
		return echoRun(ctx, kind, params)
	})
	good := NewLoopback("good", 1, echoRun)
	c, err := New([]Backend{flappy, good}, Options{
		MaxRetries: 3, Concurrency: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Enough shards to trip the breaker: each failure on flappy re-dispatches
	// to good, and after 2 consecutive failures flappy's circuit opens.
	if _, err := c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 4}, SweepHooks{}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	snap := c.Metrics()
	if snap.BreakerOpens == 0 {
		t.Error("breakerOpens = 0, want > 0")
	}
	statuses := c.Backends()
	if statuses[0].Name != "flappy" || statuses[0].Healthy {
		t.Errorf("flappy status = %+v, want unhealthy", statuses[0])
	}
	if !statuses[1].Healthy {
		t.Errorf("good status = %+v, want healthy", statuses[1])
	}

	// With the circuit open, new shards go to good only.
	before := c.Metrics().ShardFailures
	if _, err := c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 3}, SweepHooks{}); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().ShardFailures; got != before {
		t.Errorf("shardFailures grew %d -> %d while circuit open", before, got)
	}

	// A successful health probe closes the circuit again (Loopback's Check
	// always succeeds).
	failing.Store(false)
	c.CheckAll(context.Background())
	if st := c.Backends(); !st[0].Healthy {
		t.Errorf("flappy still unhealthy after probe: %+v", st[0])
	}
	if got := c.Metrics().ProbesOK; got == 0 {
		t.Error("probesOK = 0, want > 0")
	}
}

// probed is a loopback backend whose health probe returns checkErr.
type probed struct {
	*Loopback
	checkErr error
}

func (p *probed) Check(context.Context) error { return p.checkErr }

func TestHealthProbeDrivesBreaker(t *testing.T) {
	a := &probed{Loopback: NewLoopback("a", 1, echoRun)}
	b := NewLoopback("b", 1, echoRun)
	c, err := New([]Backend{a, b}, Options{BreakerCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	// A failed health probe (e.g. /healthz answering 503 while the peer
	// drains) opens the circuit.
	a.checkErr = errors.New("GET /healthz: 503 Service Unavailable")
	c.CheckAll(context.Background())
	st := c.Backends()
	if st[0].Healthy || !st[1].Healthy {
		t.Fatalf("after failed probe: %+v", st)
	}
	if m := c.Metrics(); m.ProbesFailed != 1 || m.BreakerOpens != 1 {
		t.Fatalf("metrics after failure: %+v", m)
	}

	// Repeat failures don't double-count the open transition.
	c.CheckAll(context.Background())
	if m := c.Metrics(); m.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", m.BreakerOpens)
	}

	// A successful probe closes it again.
	a.checkErr = nil
	c.CheckAll(context.Background())
	if st := c.Backends(); !st[0].Healthy {
		t.Fatalf("after recovery probe: %+v", st[0])
	}
	if m := c.Metrics(); m.ProbesOK != 4 {
		t.Fatalf("probesOK = %d, want 4 (b twice while a was down, then both)", m.ProbesOK)
	}
}

func TestAllCircuitsOpenStillDispatches(t *testing.T) {
	// A fully-open fleet must limp along (half-open fallback), not deadlock.
	var calls atomic.Int64
	b := NewLoopback("only", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		if calls.Add(1) <= 3 {
			return nil, errors.New("down")
		}
		return echoRun(ctx, kind, params)
	})
	c, err := New([]Backend{b}, Options{MaxRetries: 5, Concurrency: 1, BreakerThreshold: 1, BreakerCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 1}, SweepHooks{}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
}

func TestHedgeDuplicateCancelsLoser(t *testing.T) {
	primaryCanceled := make(chan struct{})
	slow := NewLoopback("slow", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		<-ctx.Done() // never finishes on its own; only the hedge cancel frees it
		close(primaryCanceled)
		return nil, ctx.Err()
	})
	fast := NewLoopback("fast", 1, echoRun)
	// slow is first in registration order, so with equal load it is the
	// primary pick; the hedge then fires on fast.
	c, err := New([]Backend{slow, fast}, Options{
		MaxRetries: 1, Concurrency: 1, HedgeAfter: 20 * time.Millisecond, ShardTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 1}, SweepHooks{})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if want := `{"seed":1,"kind":"lifetime"}`; string(res.Shards[0].Result) != want {
		t.Fatalf("result = %s, want %s (the hedge's result must win)", res.Shards[0].Result, want)
	}
	snap := c.Metrics()
	if snap.Hedges != 1 {
		t.Errorf("hedges = %d, want 1", snap.Hedges)
	}
	if snap.HedgeCancels != 1 {
		t.Errorf("hedgeCancels = %d, want 1", snap.HedgeCancels)
	}
	select {
	case <-primaryCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing primary was never canceled")
	}
	// The self-inflicted cancellation must not punish the slow backend's
	// breaker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Backends()
		if st[0].Inflight == 0 {
			if !st[0].Healthy {
				t.Errorf("slow backend marked unhealthy by its own hedge cancel: %+v", st[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow backend never released its inflight slot")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSweepCanceledMidFlight(t *testing.T) {
	started := make(chan struct{}, 8)
	block := NewLoopback("block", 1, func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c, err := New([]Backend{block}, Options{MaxRetries: 1, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.SweepWithHooks(ctx, SweepRequest{Kind: KindLifetime, SeedCount: 4}, SweepHooks{})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled sweep never returned")
	}
}

func TestWeightedPickPrefersHeavierBackend(t *testing.T) {
	var light, heavy atomic.Int64
	count := func(n *atomic.Int64) RunFunc {
		return func(ctx context.Context, kind string, params json.RawMessage) (json.RawMessage, error) {
			n.Add(1)
			time.Sleep(2 * time.Millisecond) // hold the slot so load matters
			return echoRun(ctx, kind, params)
		}
	}
	c, err := New([]Backend{
		NewLoopback("light", 1, count(&light)),
		NewLoopback("heavy", 3, count(&heavy)),
	}, Options{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SweepWithHooks(context.Background(), SweepRequest{Kind: KindLifetime, SeedCount: 24}, SweepHooks{}); err != nil {
		t.Fatal(err)
	}
	if heavy.Load() <= light.Load() {
		t.Errorf("weight-3 backend ran %d shards vs weight-1's %d; want more", heavy.Load(), light.Load())
	}
}

// TestConcurrentSweepsRace exercises shared coordinator state from parallel
// sweeps; run with -race to validate the locking.
func TestConcurrentSweepsRace(t *testing.T) {
	c, err := New([]Backend{NewLoopback("a", 1, echoRun), NewLoopback("b", 2, echoRun)}, Options{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			_, err := c.SweepWithHooks(context.Background(), SweepRequest{
				Kind: KindCompression, SeedStart: uint64(1 + 10*i), SeedCount: 8,
			}, SweepHooks{OnProgress: func(done, total int) { _ = c.Backends() }})
			done <- err
		}(i)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Metrics().Dispatched; got != 32 {
		t.Errorf("dispatched = %d, want 32", got)
	}
}
