// Package tracestore is the content-addressed trace subsystem: uploaded
// LLC write-back traces keyed by the SHA-256 of their canonical encoding,
// spooled to disk with TTL/capacity eviction, and held as the replay
// events (workload.NewReplay) that trace-driven jobs anywhere in the fleet
// run on.
//
// The digest convention mirrors the result cache: the address is the hex
// SHA-256 of canonical bytes, prefixed "sha256:". Canonical bytes are the
// sized binary encoding (trace.Write) of the decoded events, so the same
// trace uploaded as NDJSON, as a tracegen binary, or as that binary
// gzip-wrapped always lands on one digest and is stored once.
package tracestore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pcmcomp/internal/lifetime"
	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

// DigestPrefix is the algorithm tag every trace digest carries.
const DigestPrefix = "sha256:"

// ErrNotFound reports a digest the store does not hold.
var ErrNotFound = errors.New("tracestore: trace not found")

// ErrTooLarge reports a trace bigger than the store's whole capacity —
// no amount of eviction could ever fit it (the upload handler's 413).
var ErrTooLarge = errors.New("tracestore: trace exceeds store capacity")

// ParseDigest validates and canonicalizes a "sha256:<hex>" digest:
// the hex is lowercased, and anything that is not exactly a 64-digit
// SHA-256 is rejected. A digest that is already canonical is returned as
// is, without allocating.
func ParseDigest(s string) (string, error) {
	if !strings.HasPrefix(s, DigestPrefix) {
		return "", fmt.Errorf("tracestore: digest %q must start with %q", s, DigestPrefix)
	}
	if canonicalHex(s[len(DigestPrefix):]) {
		return s, nil
	}
	hexPart := strings.ToLower(strings.TrimPrefix(s, DigestPrefix))
	if len(hexPart) != sha256.Size*2 {
		return "", fmt.Errorf("tracestore: digest %q has %d hex digits, want %d", s, len(hexPart), sha256.Size*2)
	}
	if _, err := hex.DecodeString(hexPart); err != nil {
		return "", fmt.Errorf("tracestore: digest %q is not hex: %v", s, err)
	}
	return DigestPrefix + hexPart, nil
}

// canonicalHex reports whether h is a SHA-256 in lowercase hex.
func canonicalHex(h string) bool {
	if len(h) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Meta describes one stored trace.
type Meta struct {
	// Digest is the content address, "sha256:<hex>" over the canonical
	// binary encoding.
	Digest string `json:"digest"`
	// Bytes is the canonical encoding's size — what the capacity bound and
	// the byte gauge count.
	Bytes int64 `json:"bytes"`
	// Events, Lines, and MaxAddr summarize the trace footprint.
	Events  int `json:"events"`
	Lines   int `json:"lines"`
	MaxAddr int `json:"max_addr"`
	// Created is when this store first saw the digest (restored from file
	// mtime after a restart).
	Created time.Time `json:"created"`
}

// Store holds traces in memory, mirrored to a spool directory when one is
// configured. Every trace stays resident — the capacity bound that
// protects the disk bounds their memory too — so reads never touch the
// disk after boot.
//
// A trace is held in the one form jobs run on, built at ingest: its
// replay events, decoded and densified once per process rather than once
// per job, with the table that maps their dense addresses back. Bytes
// re-encodes the canonical bytes from them on demand; the encoding is
// deterministic, so the bytes come back identical. The capacity bound
// charges canonical bytes, at least 65 per event, while an entry holds 72
// per event and 8 per distinct line, so held memory stays within 1.25×
// the bound. Each entry also owns its trace's lifetime.Memo, which the
// lifetime runs over the trace fill as they replay it and which goes with
// the entry: at most 144 bytes per event (lifetime.Memo's codec bound),
// another 2.25× the bound once every stored trace has been replayed.
type Store struct {
	mu       sync.Mutex
	dir      string // "" = memory-only
	maxBytes int64
	now      func() time.Time

	entries map[string]*entry
	// order is the eviction order: front = least recently used.
	order      *list.List
	totalBytes int64
	evictions  uint64
	fetches    uint64
}

// entry is one stored trace. Everything but lastUsed and elem is fixed
// once the entry is in the store, so it may be read without s.mu.
type entry struct {
	meta Meta
	// replay is the trace's replay events, and addrs[a] the trace address
	// that replay address a densified.
	replay []trace.Event
	addrs  []int
	// memo is the compression every lifetime run over replay shares.
	memo     *lifetime.Memo
	lastUsed time.Time
	elem     *list.Element
}

// newEntry builds the entry for a decoded trace whose canonical encoding
// hashes to digest and is size bytes long. Lines and MaxAddr are read off
// the address table.
func newEntry(events []trace.Event, digest string, size int64) (*entry, error) {
	rep, err := workload.NewReplay(events)
	if err != nil {
		return nil, err
	}
	e := &entry{replay: rep.Events(), memo: &lifetime.Memo{}}
	// Dense addresses number the trace's lines from 0, so the highest one
	// is the line count less one.
	lines := 0
	for _, ev := range e.replay {
		lines = max(lines, ev.Addr+1)
	}
	e.addrs = make([]int, lines)
	for i, ev := range e.replay {
		e.addrs[ev.Addr] = events[i].Addr
	}
	e.meta = Meta{
		Digest: digest, Bytes: size,
		Events: len(events), Lines: lines, MaxAddr: slices.Max(e.addrs),
	}
	return e, nil
}

// canonical re-encodes the entry's canonical bytes from its replay events.
func (e *entry) canonical() ([]byte, error) {
	raw := make([]trace.Event, len(e.replay))
	for i, ev := range e.replay {
		raw[i] = trace.Event{Addr: e.addrs[ev.Addr], Data: ev.Data}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ttl is how long a trace may go unused before Sweep evicts it.
const ttl = 7 * 24 * time.Hour

// Options configures a Store. The zero value is a memory-only store with
// default bounds.
type Options struct {
	// Dir is the spool directory; empty keeps traces in memory only.
	Dir string
	// MaxBytes bounds the sum of canonical trace sizes (default 1 GiB).
	// Adding a trace evicts least-recently-used traces until it fits.
	MaxBytes int64
	// Now injects the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// Open builds a store and, when a spool directory is configured, recovers
// every trace already in it. Recovery is crash-safe: leftover temp files
// from an interrupted Put are deleted, and any spool file whose content
// does not hash to its name (a torn or tampered write) is discarded.
func Open(opts Options) (*Store, error) {
	s := &Store{
		dir:      opts.Dir,
		maxBytes: opts.MaxBytes,
		now:      opts.Now,
		entries:  make(map[string]*entry),
		order:    list.New(),
	}
	if s.maxBytes == 0 {
		s.maxBytes = 1 << 30
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: create spool dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// spoolPath maps a digest to its spool file. The ':' is replaced with '-'
// so the name is portable.
func (s *Store) spoolPath(digest string) string {
	return filepath.Join(s.dir, strings.Replace(digest, ":", "-", 1)+".pcmt")
}

// recover scans the spool directory on boot.
func (s *Store) recover() error {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("tracestore: scan spool dir: %w", err)
	}
	var found []*entry
	for _, de := range dirents {
		name := de.Name()
		full := filepath.Join(s.dir, name)
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(full) // interrupted Put
			continue
		}
		if de.IsDir() || !strings.HasPrefix(name, "sha256-") || !strings.HasSuffix(name, ".pcmt") {
			continue
		}
		data, err := os.ReadFile(full)
		if err != nil {
			continue
		}
		sum := sha256.Sum256(data)
		digest := DigestPrefix + hex.EncodeToString(sum[:])
		if s.spoolPath(digest) != full {
			os.Remove(full) // torn write or renamed file: content != name
			continue
		}
		events, err := trace.Read(bytes.NewReader(data))
		var e *entry
		if err == nil {
			e, err = newEntry(events, digest, int64(len(data)))
		}
		if err != nil {
			os.Remove(full)
			continue
		}
		e.meta.Created = s.now()
		if info, err := de.Info(); err == nil {
			e.meta.Created = info.ModTime()
		}
		e.lastUsed = e.meta.Created
		found = append(found, e)
	}
	// Oldest first, so the LRU order after recovery matches file age and a
	// capacity overflow (smaller -trace-max-bytes after restart) drops the
	// stalest traces.
	sort.Slice(found, func(i, j int) bool { return found[i].meta.Created.Before(found[j].meta.Created) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range found {
		e.elem = s.order.PushBack(e)
		s.entries[e.meta.Digest] = e
		s.totalBytes += e.meta.Bytes
	}
	s.evictLockedFor(0)
	return nil
}

// Put ingests one trace in any encoding trace.Decode understands. It
// returns the trace's meta and whether the bytes were newly stored —
// false is the dedupe no-op: the digest was already present, nothing was
// written, and the entry was only promoted to most recently used.
func (s *Store) Put(r io.Reader) (Meta, bool, error) {
	events, err := trace.Decode(r)
	if err != nil {
		return Meta{}, false, err
	}
	return s.PutEvents(events)
}

// PutEvents ingests already-decoded events (the coordinator-fetch path and
// tests). The canonical encoding is computed here, so the digest is
// identical no matter which route the trace arrived by; the bytes are
// kept only long enough to hash and spool them.
func (s *Store) PutEvents(events []trace.Event) (Meta, bool, error) {
	if len(events) == 0 {
		return Meta{}, false, trace.ErrEmptyTrace
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, events); err != nil {
		return Meta{}, false, err
	}
	data := buf.Bytes()
	if int64(len(data)) > s.maxBytes {
		return Meta{}, false, fmt.Errorf("%w: trace is %d bytes, capacity is %d", ErrTooLarge, len(data), s.maxBytes)
	}
	sum := sha256.Sum256(data)
	digest := DigestPrefix + hex.EncodeToString(sum[:])
	e, err := newEntry(events, digest, int64(len(data)))
	if err != nil {
		return Meta{}, false, err
	}

	s.mu.Lock()
	now := s.now()
	if old, ok := s.entries[digest]; ok {
		old.lastUsed = now
		s.order.MoveToBack(old.elem)
		s.mu.Unlock()
		return old.meta, false, nil
	}
	e.meta.Created, e.lastUsed = now, now
	s.evictLockedFor(e.meta.Bytes)
	e.elem = s.order.PushBack(e)
	s.entries[digest] = e
	s.totalBytes += e.meta.Bytes
	s.mu.Unlock()

	if s.dir != "" {
		if err := s.writeSpool(digest, data); err != nil {
			// The entry stays usable in memory; the spool write failing only
			// costs durability across a restart.
			return e.meta, true, fmt.Errorf("tracestore: spool %s: %w", digest, err)
		}
	}
	return e.meta, true, nil
}

// writeSpool persists canonical bytes atomically: temp file + rename, so a
// crash mid-write leaves only a .tmp that recovery deletes.
func (s *Store) writeSpool(digest string, data []byte) error {
	final := s.spoolPath(digest)
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// evictLockedFor drops least-recently-used entries until need more bytes
// fit under the capacity bound. Callers hold s.mu.
func (s *Store) evictLockedFor(need int64) {
	for s.totalBytes+need > s.maxBytes && s.order.Len() > 0 {
		s.dropLocked(s.order.Front().Value.(*entry))
	}
}

// dropLocked evicts one entry. Callers hold s.mu.
func (s *Store) dropLocked(e *entry) {
	s.removeLocked(e)
	s.evictions++
}

// removeLocked removes one entry and its spool file; jobs still running
// on its replay events keep them alive until they finish. Callers hold
// s.mu.
func (s *Store) removeLocked(e *entry) {
	s.order.Remove(e.elem)
	delete(s.entries, e.meta.Digest)
	s.totalBytes -= e.meta.Bytes
	if s.dir != "" {
		os.Remove(s.spoolPath(e.meta.Digest))
	}
}

// Intern returns the store's own copy of digest when it holds that trace,
// else digest itself, so the jobs that name a stored trace share one
// string instead of each keeping its decoded copy.
func (s *Store) Intern(digest string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[digest]; ok {
		return e.meta.Digest
	}
	return digest
}

// Stat returns a trace's meta without counting a fetch.
func (s *Store) Stat(digest string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return Meta{}, false
	}
	return e.meta, true
}

// Bytes re-encodes a trace's canonical bytes and promotes the entry.
// Counted as a fetch.
func (s *Store) Bytes(digest string) ([]byte, Meta, error) {
	s.mu.Lock()
	e, ok := s.entries[digest]
	if ok {
		s.touchLocked(e)
	}
	s.mu.Unlock()
	if !ok {
		return nil, Meta{}, ErrNotFound
	}
	data, err := e.canonical()
	return data, e.meta, err
}

// Trace is a stored trace in the form jobs run on: its replay events,
// decoded and densified by workload.NewReplay, and the compression memo
// every lifetime run over them shares. Both are the entry's own, shared by
// every caller, so callers must not mutate the events.
type Trace struct {
	Events []trace.Event
	Memo   *lifetime.Memo
}

// Replay returns a stored trace as jobs run on it. Counted as a fetch and
// promotes the entry in the LRU order.
func (s *Store) Replay(digest string) (Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return Trace{}, ErrNotFound
	}
	s.touchLocked(e)
	return Trace{Events: e.replay, Memo: e.memo}, nil
}

// touchLocked promotes an entry and counts the fetch. Callers hold s.mu.
func (s *Store) touchLocked(e *entry) {
	e.lastUsed = s.now()
	s.order.MoveToBack(e.elem)
	s.fetches++
}

// Delete removes a trace; it reports whether the digest was present.
// Deletions are not counted as evictions.
func (s *Store) Delete(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return false
	}
	s.removeLocked(e)
	return true
}

// List returns every stored trace's meta, most recently created first
// (ties broken by digest for a stable order).
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.meta)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.After(out[j].Created)
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// Sweep evicts traces unused for at least ttl and returns how many it
// dropped.
func (s *Store) Sweep(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for el := s.order.Front(); el != nil; {
		e := el.Value.(*entry)
		next := el.Next()
		if now.Sub(e.lastUsed) >= ttl {
			s.dropLocked(e)
			dropped++
		}
		el = next
	}
	return dropped
}

// Stats is the point-in-time counter set behind pcmd_traces_*.
type Stats struct {
	// Stored and StoredBytes gauge the current contents.
	Stored      int
	StoredBytes int64
	// Evictions counts TTL and capacity drops since boot; Fetches counts
	// content reads (downloads and job resolutions).
	Evictions uint64
	Fetches   uint64
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Stored: len(s.entries), StoredBytes: s.totalBytes,
		Evictions: s.evictions, Fetches: s.fetches,
	}
}
