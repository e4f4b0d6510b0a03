package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/server"
)

// newDaemon serves a peerless pcmd (its sweeps run on the in-process
// loopback backend) with the result cache off, so every sweep computes.
func newDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{Workers: 2, QueueDepth: 8, JobTimeout: time.Minute, CacheEntries: -1})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ts
}

func TestSweepLocalEndToEnd(t *testing.T) {
	ts := newDaemon(t)
	runOnce := func() json.RawMessage {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{
			"sweep", "-server", ts.URL, "-kind", "failure-probability",
			"-params", `{"scheme":"ecp","window":16,"max_errors":8,"trials":2000}`,
			"-seeds", "3",
		}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("pcmctl sweep: %v (stderr: %s)", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "shards 3/3") {
			t.Errorf("stderr %q lacks final progress line", stderr.String())
		}
		var doc struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
			t.Fatalf("stdout is not a sweep document: %v\n%s", err, stdout.Bytes())
		}
		return doc.Result
	}
	first := runOnce()
	var res cluster.SweepResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("result is not a sweep result: %v\n%s", err, first)
	}
	if res.Kind != cluster.KindFailureProbability || res.SeedCount != 3 ||
		len(res.Shards) != 3 || len(res.MeanCurve) != 8 {
		t.Fatalf("merged result shape: %+v", res)
	}
	if !bytes.Equal(first, runOnce()) {
		t.Error("two identical sweeps printed different results")
	}
}

func TestSweepFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cases := [][]string{
		{"sweep", "-kind", "lifetime"},
		{"sweep", "-server", "http://x", "-kind", "lifetime", "-params", "not json"},
		{"sweep", "-server", "http://x", "-kind", "bogus"},
		{"bogus-subcommand"},
		{},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

func TestJobsAndCancelAgainstDaemon(t *testing.T) {
	s := server.New(server.Config{Workers: 1, QueueDepth: 8, JobTimeout: time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// Seed one job through the daemon, then drive the CLI against it.
	resp, err := http.Post(ts.URL+"/v1/jobs/failure-probability", "application/json",
		strings.NewReader(`{"scheme":"ecp","window":16,"max_errors":64,"trials":1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"jobs", "-server", ts.URL}, &stdout, &stdout); err != nil {
		t.Fatalf("pcmctl jobs: %v", err)
	}
	var page struct {
		Jobs  []struct{ ID string }
		Total int
	}
	if err := json.Unmarshal(stdout.Bytes(), &page); err != nil {
		t.Fatalf("jobs output: %v\n%s", err, stdout.String())
	}
	if page.Total != 1 || len(page.Jobs) != 1 || page.Jobs[0].ID != job.ID {
		t.Fatalf("jobs page = %+v, want the submitted job", page)
	}

	stdout.Reset()
	if err := run(context.Background(), []string{"cancel", "-server", ts.URL, "-id", job.ID}, &stdout, &stdout); err != nil {
		t.Fatalf("pcmctl cancel: %v", err)
	}
	var canceled struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &canceled); err != nil {
		t.Fatal(err)
	}
	// The long job cannot have finished yet, so the cancel reaches it while
	// queued or running; either way a job document comes back.
	if canceled.State == "" {
		t.Fatalf("cancel output missing state: %s", stdout.String())
	}

	// Required flags are enforced.
	for _, args := range [][]string{
		{"jobs"},
		{"cancel", "-server", ts.URL},
	} {
		if err := run(context.Background(), args, &stdout, &stdout); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}
