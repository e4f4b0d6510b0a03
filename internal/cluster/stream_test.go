package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pcmcomp/internal/cluster"
	"pcmcomp/internal/pcmclient"
	"pcmcomp/internal/server"
)

// newPeer serves a real pcmd behind wrap (nil serves it as is) and stops
// both when the test ends.
func newPeer(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{Workers: 1, QueueDepth: 8, JobTimeout: time.Minute, CacheEntries: -1, ScrapeInterval: -1})
	var h http.Handler = s
	if wrap != nil {
		h = wrap(s)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ts
}

// cutWriter passes one SSE frame through, then aborts the connection.
type cutWriter struct {
	http.ResponseWriter
}

func (c cutWriter) Write(p []byte) (int, error) {
	if i := bytes.Index(p, []byte("\n\n")); i >= 0 {
		c.ResponseWriter.Write(p[:i+2])
		c.ResponseWriter.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	return c.ResponseWriter.Write(p)
}

func (c cutWriter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// TestRunJobResumesCutEventStream cuts each job's first /events stream
// after its first frame. RunJob must reconnect with Last-Event-ID, see
// the terminal event, and return the job's result.
func TestRunJobResumesCutEventStream(t *testing.T) {
	var mu sync.Mutex
	streams := make(map[string]int) // /events requests per path
	var resumes []string            // Last-Event-ID of each reconnect
	peer := newPeer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/events") {
				h.ServeHTTP(w, r)
				return
			}
			mu.Lock()
			streams[r.URL.Path]++
			first := streams[r.URL.Path] == 1
			if !first {
				resumes = append(resumes, r.Header.Get("Last-Event-ID"))
			}
			mu.Unlock()
			if first {
				w = cutWriter{w}
			}
			h.ServeHTTP(w, r)
		})
	})

	params := json.RawMessage(`{"scheme":"ecp","window":16,"max_errors":8,"trials":2000,"seed":3}`)
	b := cluster.NewHTTPBackend(peer.URL)
	b.Client.BaseBackoff = time.Millisecond
	got, err := b.RunJob(context.Background(), cluster.KindFailureProbability, params)
	if err != nil {
		t.Fatalf("RunJob over a cut stream: %v", err)
	}
	want, err := server.ExecuteLocal(context.Background(), server.KindFailureProbability, params)
	if err != nil {
		t.Fatal(err)
	}
	// The job document indents its result; compare the compact forms.
	var compact bytes.Buffer
	if err := json.Compact(&compact, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), want) {
		t.Fatalf("result over a cut stream differs:\n got %s\nwant %s", compact.Bytes(), want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(resumes) == 0 || resumes[0] != "1" {
		t.Fatalf("reconnects sent Last-Event-ID %q, want a resume after event 1", resumes)
	}
}

// TestRunJobCancelDeletesRemoteJob cancels RunJob while the remote job
// runs: the backend must DELETE it, and the peer must report it canceled.
func TestRunJobCancelDeletesRemoteJob(t *testing.T) {
	peer := newPeer(t, nil)
	c := pcmclient.New(peer.URL)
	b := cluster.NewHTTPBackend(peer.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		// Minutes of Monte-Carlo trials, which poll their context every
		// few thousand: it ends by cancellation, promptly.
		_, err := b.RunJob(ctx, cluster.KindFailureProbability,
			json.RawMessage(`{"scheme":"aegis","window":32,"max_errors":64,"trials":1000000}`))
		done <- err
	}()

	var id string
	deadline := time.Now().Add(30 * time.Second)
	for id == "" {
		list, err := c.List(context.Background(), pcmclient.ListOptions{State: pcmclient.StateRunning})
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) > 0 {
			id = list.Jobs[0].ID
		} else if time.Now().After(deadline) {
			t.Fatal("the remote job never started running")
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled RunJob returned no error")
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		j, err := c.Poll(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == pcmclient.StateCanceled {
			return
		}
		if j.Terminal() || time.Now().After(deadline) {
			t.Fatalf("remote job %s is %s, want canceled", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
