package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pcmcomp/internal/obs"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/tracestore"
	"pcmcomp/internal/workload"
)

// maxTraceUpload bounds one POST /v1/traces body (and one coordinator
// fetch). Uploads are decoded in memory, so the bound protects the heap,
// not just the store's capacity accounting.
const maxTraceUpload = 64 << 20

// handleUploadTrace implements POST /v1/traces: ingest a trace in any
// encoding trace.Decode understands (binary, gzip, NDJSON), charge the
// bytes against the tenant's byte quota, and answer with the content
// address. 201 means the bytes were newly stored; re-uploading a known
// digest is a cheap no-op answered 200 without re-storing.
func (s *Server) handleUploadTrace(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxTraceUpload)
	if !ok {
		return
	}
	tn := s.tenantFrom(r)
	n := float64(len(body))
	if _, burst, limited := tn.ByteQuota(); limited && n > burst {
		// Larger than the bucket could ever hold: no Retry-After would help.
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("upload is %d bytes; tenant %q byte quota burst is %.0f", len(body), tn.Name, burst))
		return
	}
	if hint, ok := tn.TakeBytes(time.Now(), n); !ok {
		s.throttle(w, tn, hint, "trace byte")
		return
	}
	meta, stored, err := s.traces.Put(bytes.NewReader(body))
	switch {
	case errors.Is(err, tracestore.ErrTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	case err != nil && !stored:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	case err != nil:
		// Stored in memory but the spool write failed: usable now, lost on
		// restart. Worth a log line, not a failed upload.
		s.log.Warn("trace stored but not spooled", "digest", meta.Digest, "err", err)
	}
	code := http.StatusOK
	if stored {
		code = http.StatusCreated
	}
	obs.Logger(r.Context()).Info("trace uploaded",
		"digest", meta.Digest, "bytes", meta.Bytes, "events", meta.Events,
		"stored", stored, "tenant", tn.Name)
	writeJSON(w, code, map[string]any{"trace": meta, "stored": stored})
}

// handleListDataTraces implements GET /v1/traces.
func (s *Server) handleListDataTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.List()})
}

// handleGetDataTrace implements GET /v1/traces/{digest}: metadata by
// default, the canonical binary bytes with ?download=1 (the coordinator
// fetch protocol backends use).
func (s *Server) handleGetDataTrace(w http.ResponseWriter, r *http.Request) {
	digest, err := tracestore.ParseDigest(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.URL.Query().Get("download") != "" {
		data, _, err := s.traces.Bytes(digest)
		if err != nil {
			writeError(w, http.StatusNotFound, "no such trace")
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
		return
	}
	meta, ok := s.traces.Stat(digest)
	if !ok {
		writeError(w, http.StatusNotFound, "no such trace")
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleDeleteDataTrace implements DELETE /v1/traces/{digest}.
func (s *Server) handleDeleteDataTrace(w http.ResponseWriter, r *http.Request) {
	digest, err := tracestore.ParseDigest(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.traces.Delete(digest) {
		writeError(w, http.StatusNotFound, "no such trace")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": digest})
}

// resolverFor builds the trace resolver a job executes under: the local
// store alone, or — when the submitter advertised a coordinator
// (X-Trace-Source) — the local store with a fetch-and-cache fallback, so
// a sweep shard's first trace-driven job pulls the digest once and every
// later shard on this backend resolves it locally.
func (s *Server) resolverFor(source string) tracestore.Resolver {
	if source == "" {
		return s.traces
	}
	return tracestore.ResolverFunc(func(ctx context.Context, digest string) (tracestore.Trace, error) {
		if tr, err := s.traces.Replay(digest); err == nil {
			return tr, nil
		}
		events, err := s.fetchTrace(ctx, source, digest)
		if err != nil {
			return tracestore.Trace{}, err
		}
		_, stored, err := s.traces.PutEvents(events)
		switch {
		case err != nil && !stored:
			// The job still runs on the fetched copy, with a memo of its
			// own; only the cache misses.
			s.log.Warn("fetched trace not cached", "digest", digest, "err", err)
			rep, err := workload.NewReplay(events)
			if err != nil {
				return tracestore.Trace{}, err
			}
			return tracestore.Trace{Events: rep.Events()}, nil
		case err != nil:
			s.log.Warn("fetched trace stored but not spooled", "digest", digest, "err", err)
		}
		return s.traces.Replay(digest)
	})
}

// fetchTrace downloads a trace's canonical bytes from a coordinator and
// refuses them unless they hash to the digest asked for.
func (s *Server) fetchTrace(ctx context.Context, source, digest string) ([]trace.Event, error) {
	url := strings.TrimSuffix(source, "/") + "/v1/traces/" + digest + "?download=1"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("fetch trace %s: %w", digest, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetch trace %s from %s: %w", digest, source, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch trace %s from %s: %s", digest, source, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxTraceUpload))
	if err != nil {
		return nil, fmt.Errorf("fetch trace %s from %s: %w", digest, source, err)
	}
	sum := sha256.Sum256(data)
	if got := tracestore.DigestPrefix + hex.EncodeToString(sum[:]); got != digest {
		return nil, fmt.Errorf("fetch trace %s from %s: served bytes hash to %s", digest, source, got)
	}
	events, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("fetch trace %s from %s: %w", digest, source, err)
	}
	return events, nil
}
