package pcmclient_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"pcmcomp/internal/pcmclient"
	"pcmcomp/internal/server"
)

// TestClientEndToEnd drives the real service through the client: run a
// job to completion, hit the cache, and cancel a long job mid-run.
func TestClientEndToEnd(t *testing.T) {
	s := server.New(server.Config{Workers: 1, QueueDepth: 8, JobTimeout: 10 * time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	c := pcmclient.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	params := map[string]any{"apps": []string{"milc"}, "scale": "quick"}
	j, err := c.Run(ctx, pcmclient.KindCompression, params)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if j.State != pcmclient.StateDone || len(j.Result) == 0 {
		t.Fatalf("job = %+v", j)
	}
	var res struct {
		Apps []struct {
			App string `json:"app"`
		} `json:"apps"`
	}
	if err := json.Unmarshal(j.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 1 || res.Apps[0].App != "milc" {
		t.Fatalf("result = %+v", res)
	}

	// Same params: a born-done cache hit.
	hit, err := c.Run(ctx, pcmclient.KindCompression, params)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatalf("second run not a cache hit: %+v", hit)
	}

	// Cancel a job that would otherwise run for hours; Watch must surface
	// the canceled state as a JobFailed.
	big, err := c.Submit(ctx, pcmclient.KindLifetime,
		map[string]any{"app": "milc", "scale": "large", "systems": []string{"baseline"}})
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, err := c.Poll(ctx, big.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == pcmclient.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, big.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	_, err = c.Watch(ctx, big.ID, nil)
	var failed *pcmclient.JobFailed
	if !errors.As(err, &failed) || failed.Job.State != pcmclient.StateCanceled {
		t.Fatalf("wait after cancel = %v, want canceled JobFailed", err)
	}
}
