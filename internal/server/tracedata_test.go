package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pcmcomp/internal/trace"
	"pcmcomp/internal/tracestore"
	"pcmcomp/internal/workload"
)

// makeTraceBytes generates a small deterministic trace and returns its
// events alongside the canonical binary encoding.
func makeTraceBytes(t *testing.T, events int, seed uint64) ([]trace.Event, []byte) {
	t.Helper()
	prof, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	evs := gen.GenerateTrace(events)
	var buf bytes.Buffer
	if err := trace.Write(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return evs, buf.Bytes()
}

// uploadResponse is the POST /v1/traces body.
type uploadResponse struct {
	Trace  tracestore.Meta `json:"trace"`
	Stored bool            `json:"stored"`
}

// uploadTrace POSTs raw trace bytes and returns the decoded response.
func uploadTrace(t *testing.T, url string, data []byte) (uploadResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		body, _ := io.ReadAll(resp.Body)
		return uploadResponse{Trace: tracestore.Meta{Digest: string(body)}}, resp.StatusCode
	}
	var doc uploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc, resp.StatusCode
}

// TestTraceUploadLifecycle walks the data-trace surface end to end:
// upload (201), cross-format dedup re-upload (200, no re-store), list,
// stat, byte-exact download, metrics gauges, delete, and 404 after.
func TestTraceUploadLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	evs, bin := makeTraceBytes(t, 300, 1)

	doc, code := uploadTrace(t, ts.URL, bin)
	if code != http.StatusCreated || !doc.Stored {
		t.Fatalf("first upload: %d stored=%v (%+v)", code, doc.Stored, doc.Trace)
	}
	digest := doc.Trace.Digest
	if !strings.HasPrefix(digest, tracestore.DigestPrefix) || doc.Trace.Events != 300 {
		t.Fatalf("meta = %+v", doc.Trace)
	}

	// The same events as NDJSON dedupe to the same digest without storing.
	var nd bytes.Buffer
	if err := trace.WriteNDJSON(&nd, evs); err != nil {
		t.Fatal(err)
	}
	doc2, code2 := uploadTrace(t, ts.URL, nd.Bytes())
	if code2 != http.StatusOK || doc2.Stored || doc2.Trace.Digest != digest {
		t.Fatalf("ndjson re-upload: %d stored=%v digest=%s, want 200/false/%s",
			code2, doc2.Stored, doc2.Trace.Digest, digest)
	}

	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []tracestore.Meta `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Traces) != 1 || listing.Traces[0].Digest != digest {
		t.Fatalf("listing = %+v, want the one uploaded trace", listing.Traces)
	}

	resp, err = http.Get(ts.URL + "/v1/traces/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	var meta tracestore.Meta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Digest != digest || meta.Bytes != int64(len(bin)) {
		t.Fatalf("stat = %+v", meta)
	}

	resp, err = http.Get(ts.URL + "/v1/traces/" + digest + "?download=1")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("download content type %q", ct)
	}
	if !bytes.Equal(got, bin) {
		t.Fatalf("download returned %d bytes, want the %d canonical bytes", len(got), len(bin))
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pcmd_traces_stored 1",
		fmt.Sprintf("pcmd_traces_bytes %d", len(bin)),
		"pcmd_traces_fetches_total 1", // the ?download=1 above
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/traces/"+digest, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/traces/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stat after delete: %d, want 404", resp.StatusCode)
	}
}

// TestTraceDrivenJobs runs both trace-driven job kinds against an
// uploaded digest and checks the digest is surfaced on the job document,
// the list view, and the result.
func TestTraceDrivenJobs(t *testing.T) {
	_, ts := newTestServer(t)
	_, bin := makeTraceBytes(t, 200, 2)
	doc, code := uploadTrace(t, ts.URL, bin)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d", code)
	}
	digest := doc.Trace.Digest

	job, code := submit(t, ts, "failure-probability",
		fmt.Sprintf(`{"scheme":"ecp","trace":%q,"max_errors":4,"trials":500}`, digest))
	if code != http.StatusAccepted {
		t.Fatalf("submit mc: %d (%v)", code, job)
	}
	if job["trace_digest"] != digest {
		t.Fatalf("job document trace_digest = %v, want %s", job["trace_digest"], digest)
	}
	done := pollDone(t, ts, job["id"].(string))
	var mc FailureProbabilityResult
	raw, _ := json.Marshal(done["result"])
	if err := json.Unmarshal(raw, &mc); err != nil {
		t.Fatal(err)
	}
	if mc.Trace != digest || len(mc.Curve) != 4 {
		t.Fatalf("mc result = %+v", mc)
	}
	if mc.WindowMean <= 0 || mc.WindowMean > 64 {
		t.Fatalf("window_mean = %v, want within (0, 64]", mc.WindowMean)
	}

	job2, code := submit(t, ts, "lifetime",
		fmt.Sprintf(`{"trace":%q,"scale":"quick","systems":["baseline"]}`, digest))
	if code != http.StatusAccepted {
		t.Fatalf("submit lifetime: %d (%v)", code, job2)
	}
	done2 := pollDone(t, ts, job2["id"].(string))
	var lt LifetimeResult
	raw, _ = json.Marshal(done2["result"])
	if err := json.Unmarshal(raw, &lt); err != nil {
		t.Fatal(err)
	}
	if lt.Trace != digest || lt.App != "" || len(lt.Systems) != 1 {
		t.Fatalf("lifetime result = app %q trace %q systems %d", lt.App, lt.Trace, len(lt.Systems))
	}

	// The list view carries the digest too.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listDoc struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	withDigest := 0
	for _, j := range listDoc.Jobs {
		if j.TraceDigest == digest {
			withDigest++
		}
	}
	if withDigest != 2 {
		t.Fatalf("%d listed jobs carry the trace digest, want 2", withDigest)
	}
}

// TestTraceJobValidation pins the parameter-surface error cases.
func TestTraceJobValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct{ kind, body, wantErr string }{
		{"failure-probability", `{"scheme":"ecp","trace":"sha256:` + strings.Repeat("ab", 32) + `","window":16}`,
			"mutually exclusive"},
		{"failure-probability", `{"scheme":"ecp","trace":"not-a-digest"}`, "must start with"},
		{"lifetime", `{"scale":"quick"}`, "app is required"},
	} {
		doc, code := submit(t, ts, tc.kind, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s %s: code %d, want 400", tc.kind, tc.body, code)
			continue
		}
		if msg, _ := doc["error"].(string); !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.body, msg, tc.wantErr)
		}
	}

	// A well-formed digest the store has never seen passes validation but
	// fails at execution.
	ghost := "sha256:" + strings.Repeat("00", 32)
	doc, code := submit(t, ts, "failure-probability",
		fmt.Sprintf(`{"scheme":"ecp","trace":%q,"max_errors":4,"trials":100}`, ghost))
	if code != http.StatusAccepted {
		t.Fatalf("ghost-digest submit: %d (%v)", code, doc)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + doc["id"].(string))
		if err != nil {
			t.Fatal(err)
		}
		var j map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if j["state"] == string(StateFailed) {
			break
		}
		if j["state"] == string(StateDone) {
			t.Fatal("job over an unknown digest succeeded")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v", j["state"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTraceByteQuota exercises the upload byte buckets: within burst is
// admitted, an exhausted bucket answers 429 with Retry-After, and an
// upload larger than the burst is refused outright with 413.
func TestTraceByteQuota(t *testing.T) {
	_, bin := makeTraceBytes(t, 200, 3)
	s := New(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: time.Minute,
		TraceByteRate:  1, // one byte per second: effectively no refill mid-test
		TraceByteBurst: float64(len(bin)) + 16,
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	if _, code := uploadTrace(t, ts.URL, bin); code != http.StatusCreated {
		t.Fatalf("first upload: %d", code)
	}

	_, bin2 := makeTraceBytes(t, 200, 4)
	if len(bin2) > 16+len(bin) {
		t.Fatalf("second trace unexpectedly large: %d vs %d", len(bin2), len(bin))
	}
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(bin2))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted-bucket upload: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}

	_, big := makeTraceBytes(t, 2000, 5)
	if _, code := uploadTrace(t, ts.URL, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-burst upload: %d, want 413", code)
	}
}

// TestTraceStoreCapacity413 pins the ErrTooLarge path: a trace bigger
// than the whole store is a client error, not a server one.
func TestTraceStoreCapacity413(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: time.Minute, TraceMaxBytes: 64})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	_, bin := makeTraceBytes(t, 100, 6)
	doc, code := uploadTrace(t, ts.URL, bin)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload into a 64-byte store: %d (%v), want 413", code, doc.Trace.Digest)
	}
}

// TestTraceSweepShardedMatchesUnsharded is the subsystem's determinism
// pin: a trace-driven sweep sharded across two HTTP backends — which
// fetch the digest from the advertised trace host on first use — must
// merge byte-identical to the same sweep on a single peerless node.
func TestTraceSweepShardedMatchesUnsharded(t *testing.T) {
	_, bin := makeTraceBytes(t, 150, 7)

	// The trace host: holds the uploaded digest; the coordinator advertises
	// it so backends can fetch shards' traces on demand.
	host := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: time.Minute})
	hostTS := httptest.NewServer(host)
	t.Cleanup(hostTS.Close)
	doc, code := uploadTrace(t, hostTS.URL, bin)
	if code != http.StatusCreated {
		t.Fatalf("upload to trace host: %d", code)
	}
	digest := doc.Trace.Digest

	var backendURLs []string
	var backends []*Server
	for i := 0; i < 2; i++ {
		b := New(Config{Workers: 2, QueueDepth: 32, JobTimeout: time.Minute, CacheEntries: -1})
		bts := httptest.NewServer(b)
		t.Cleanup(bts.Close)
		backendURLs = append(backendURLs, bts.URL)
		backends = append(backends, b)
	}
	coord := New(Config{
		Workers: 2, QueueDepth: 16, JobTimeout: time.Minute, CacheEntries: -1,
		Peers: backendURLs, AdvertiseURL: hostTS.URL,
	})
	coordTS := httptest.NewServer(coord)
	t.Cleanup(coordTS.Close)

	body := fmt.Sprintf(`{"kind":"failure-probability","params":{"scheme":"ecp","trace":%q,"max_errors":4,"trials":1000},"seed_count":2}`, digest)
	sharded, code := postSweep(t, coordTS, body)
	if code != http.StatusAccepted {
		t.Fatalf("sharded submit: %d (%+v)", code, sharded)
	}
	shardedDone := pollSweep(t, coordTS, sharded.ID)
	if shardedDone.State != StateDone {
		t.Fatalf("sharded sweep finished %s: %s", shardedDone.State, shardedDone.Error)
	}

	// At least one backend ran a shard, fetched the digest from the host,
	// and cached it locally.
	cached := 0
	for _, b := range backends {
		if _, ok := b.traces.Stat(digest); ok {
			cached++
		}
	}
	if cached == 0 {
		t.Error("no backend cached the fetched trace")
	}
	if f := host.traces.Stats().Fetches; f == 0 {
		t.Error("trace host recorded no fetches")
	}

	// The unsharded reference: one peerless node with the trace local.
	single := New(Config{Workers: 2, QueueDepth: 16, JobTimeout: time.Minute, CacheEntries: -1})
	singleTS := httptest.NewServer(single)
	t.Cleanup(singleTS.Close)
	if _, code := uploadTrace(t, singleTS.URL, bin); code != http.StatusCreated {
		t.Fatalf("upload to single node: %d", code)
	}
	unsharded, code := postSweep(t, singleTS, body)
	if code != http.StatusAccepted {
		t.Fatalf("unsharded submit: %d (%+v)", code, unsharded)
	}
	unshardedDone := pollSweep(t, singleTS, unsharded.ID)
	if unshardedDone.State != StateDone {
		t.Fatalf("unsharded sweep finished %s: %s", unshardedDone.State, unshardedDone.Error)
	}

	if !bytes.Equal(shardedDone.Result, unshardedDone.Result) {
		t.Fatalf("sharded and unsharded trace sweeps diverge:\n%s\n%s",
			shardedDone.Result, unshardedDone.Result)
	}
}

// TestTraceFetchVerifiesDigest pins the fetch check: a backend resolving a
// digest from a coordinator that serves another trace's bytes refuses them
// with an error naming both digests and stores nothing; served the right
// bytes, it stores them and hands out the stored replay events, also when
// the spool write fails.
func TestTraceFetchVerifiesDigest(t *testing.T) {
	_, want := makeTraceBytes(t, 120, 11)
	_, other := makeTraceBytes(t, 120, 12)
	digestOf := func(data []byte) string {
		sum := sha256.Sum256(data)
		return tracestore.DigestPrefix + hex.EncodeToString(sum[:])
	}
	digest, otherDigest := digestOf(want), digestOf(other)
	serving := other
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces/"+digest || r.URL.Query().Get("download") == "" {
			http.NotFound(w, r)
			return
		}
		w.Write(serving)
	}))
	t.Cleanup(coord.Close)

	spool := t.TempDir()
	b := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: time.Minute, TraceDir: spool})
	resolver := b.resolverFor(coord.URL)
	_, err := resolver.Resolve(context.Background(), digest)
	if err == nil || !strings.Contains(err.Error(), digest) || !strings.Contains(err.Error(), otherDigest) {
		t.Fatalf("resolving from a coordinator serving another trace: %v, want an error naming %s and %s", err, digest, otherDigest)
	}
	if st := b.traces.Stats(); st.Stored != 0 {
		t.Fatalf("the mismatched bytes were stored: %+v", st)
	}

	// With the spool gone the fetched trace is stored but not spooled; the
	// job still gets the store's own replay events.
	serving = want
	if err := os.RemoveAll(spool); err != nil {
		t.Fatal(err)
	}
	got, err := resolver.Resolve(context.Background(), digest)
	if err != nil {
		t.Fatalf("resolving from a coordinator serving the trace: %v", err)
	}
	stored, err := b.traces.Replay(digest)
	if err != nil {
		t.Fatalf("fetched trace not stored: %v", err)
	}
	if &got.Events[0] != &stored.Events[0] || got.Memo != stored.Memo {
		t.Error("the job runs on a private copy instead of the stored replay events and memo")
	}
}

// TestConcurrentFetchSharesOneMemo has two workers of a backend that lacks
// a digest resolve it at once: both fetch, one stores, and both must run
// on the stored replay events and the one compression memo the store's
// entry owns.
func TestConcurrentFetchSharesOneMemo(t *testing.T) {
	_, data := makeTraceBytes(t, 120, 13)
	sum := sha256.Sum256(data)
	digest := tracestore.DigestPrefix + hex.EncodeToString(sum[:])
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(data)
	}))
	t.Cleanup(coord.Close)
	b := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: time.Minute})
	t.Cleanup(func() { shutdownServer(b) })
	resolver := b.resolverFor(coord.URL)

	var got [2]tracestore.Trace
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = resolver.Resolve(context.Background(), digest)
		}(i)
	}
	wg.Wait()
	stored, err := b.traces.Replay(digest)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &tr.Events[0] != &stored.Events[0] || tr.Memo == nil || tr.Memo != stored.Memo {
			t.Fatalf("worker %d does not share the stored events and memo", i)
		}
	}
}
