package tracestore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

func testEvents(n, base int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i].Addr = (base + i) % 50
		for j := range events[i].Data {
			events[i].Data[j] = byte(base + i + j)
		}
	}
	return events
}

// fakeClock is an injectable, advanceable clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func encode(t *testing.T, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPutDedupeAcrossEncodings(t *testing.T) {
	s := mustOpen(t, Options{})
	events := testEvents(20, 3)

	meta1, created, err := s.Put(bytes.NewReader(encode(t, events)))
	if err != nil {
		t.Fatalf("Put(binary): %v", err)
	}
	if !created {
		t.Fatal("first Put should create")
	}
	if _, err := ParseDigest(meta1.Digest); err != nil {
		t.Fatalf("digest %q not canonical: %v", meta1.Digest, err)
	}

	// Re-upload of the identical bytes: same digest, nothing stored.
	meta2, created, err := s.Put(bytes.NewReader(encode(t, events)))
	if err != nil {
		t.Fatalf("Put(again): %v", err)
	}
	if created || meta2.Digest != meta1.Digest {
		t.Fatalf("re-upload: created=%v digest=%q, want no-op with %q", created, meta2.Digest, meta1.Digest)
	}

	// The same trace as NDJSON lands on the same digest.
	var nd bytes.Buffer
	if err := trace.WriteNDJSON(&nd, events); err != nil {
		t.Fatal(err)
	}
	meta3, created, err := s.Put(&nd)
	if err != nil {
		t.Fatalf("Put(ndjson): %v", err)
	}
	if created || meta3.Digest != meta1.Digest {
		t.Fatalf("ndjson upload: created=%v digest=%q, want dedupe onto %q", created, meta3.Digest, meta1.Digest)
	}
	if st := s.Stats(); st.Stored != 1 {
		t.Fatalf("stored %d traces, want 1", st.Stored)
	}
}

func TestEventsRoundTripAndStats(t *testing.T) {
	s := mustOpen(t, Options{})
	events := testEvents(15, 9)
	meta, _, err := s.PutEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Events != 15 || meta.Lines == 0 || meta.Bytes == 0 {
		t.Fatalf("meta = %+v, want populated", meta)
	}
	got, err := s.Events(meta.Digest)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
	if st := s.Stats(); st.Fetches != 1 {
		t.Fatalf("fetches = %d, want 1", st.Fetches)
	}
	if _, err := s.Events("sha256:" + strings.Repeat("0", 64)); err != ErrNotFound {
		t.Fatalf("missing digest: err = %v, want ErrNotFound", err)
	}
}

func TestSpoolRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	s := mustOpen(t, Options{Dir: dir, Now: clock.now})
	meta, _, err := s.PutEvents(testEvents(12, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash: leftover temp file plus a torn (corrupt) spool file.
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "sha256-"+strings.Repeat("a", 64)+".pcmt")
	if err := os.WriteFile(torn, []byte("PCMT garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Options{Dir: dir, Now: clock.now})
	if _, ok := s2.Stat(meta.Digest); !ok {
		t.Fatalf("trace %s not recovered from spool", meta.Digest)
	}
	if st := s2.Stats(); st.Stored != 1 {
		t.Fatalf("recovered %d traces, want 1 (torn file must be dropped)", st.Stored)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn spool file should be deleted on recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, "put-123.tmp")); !os.IsNotExist(err) {
		t.Fatal("leftover temp file should be deleted on recovery")
	}
	got, err := s2.Events(meta.Digest)
	if err != nil || len(got) != 12 {
		t.Fatalf("recovered trace: %d events, %v", len(got), err)
	}
}

func TestCapacityEviction(t *testing.T) {
	clock := newFakeClock()
	one := encode(t, testEvents(10, 1))
	// Capacity fits two traces of this size but not three.
	s := mustOpen(t, Options{MaxBytes: int64(len(one))*2 + 10, Now: clock.now})

	m1, _, _ := s.PutEvents(testEvents(10, 1))
	clock.advance(time.Second)
	m2, _, _ := s.PutEvents(testEvents(10, 100))
	clock.advance(time.Second)
	// Touch m1 so m2 is the LRU victim.
	if _, err := s.Events(m1.Digest); err != nil {
		t.Fatal(err)
	}
	clock.advance(time.Second)
	m3, _, err := s.PutEvents(testEvents(10, 200))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Stat(m2.Digest); ok {
		t.Fatal("least-recently-used trace should have been evicted")
	}
	if _, ok := s.Stat(m1.Digest); !ok {
		t.Fatal("recently-used trace should survive")
	}
	if _, ok := s.Stat(m3.Digest); !ok {
		t.Fatal("new trace should be stored")
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// A single trace larger than the whole store is refused outright.
	big := mustOpen(t, Options{MaxBytes: 16})
	if _, _, err := big.PutEvents(testEvents(10, 1)); err == nil {
		t.Fatal("oversized trace should be refused")
	}
}

func TestTTLSweep(t *testing.T) {
	clock := newFakeClock()
	s := mustOpen(t, Options{Now: clock.now})
	m1, _, _ := s.PutEvents(testEvents(5, 1))
	clock.advance(4 * 24 * time.Hour)
	m2, _, _ := s.PutEvents(testEvents(5, 50))
	clock.advance(4 * 24 * time.Hour) // m1 idle 8 days, m2 idle 4 days
	if dropped := s.Sweep(clock.now()); dropped != 1 {
		t.Fatalf("Sweep dropped %d, want 1", dropped)
	}
	if _, ok := s.Stat(m1.Digest); ok {
		t.Fatal("expired trace should be swept")
	}
	if _, ok := s.Stat(m2.Digest); !ok {
		t.Fatal("fresh trace should survive the sweep")
	}
}

func TestDeleteAndList(t *testing.T) {
	clock := newFakeClock()
	s := mustOpen(t, Options{Now: clock.now})
	m1, _, _ := s.PutEvents(testEvents(5, 1))
	clock.advance(time.Second)
	m2, _, _ := s.PutEvents(testEvents(5, 50))
	list := s.List()
	if len(list) != 2 || list[0].Digest != m2.Digest {
		t.Fatalf("List = %+v, want newest first", list)
	}
	if !s.Delete(m1.Digest) {
		t.Fatal("Delete(existing) = false")
	}
	if s.Delete(m1.Digest) {
		t.Fatal("Delete(gone) = true")
	}
	if st := s.Stats(); st.Stored != 1 || st.Evictions != 0 {
		t.Fatalf("after delete: %+v", st)
	}
}

func TestParseDigest(t *testing.T) {
	good := "sha256:" + strings.Repeat("AB", 32)
	d, err := ParseDigest(good)
	if err != nil {
		t.Fatal(err)
	}
	if d != "sha256:"+strings.Repeat("ab", 32) {
		t.Fatalf("ParseDigest did not lowercase: %q", d)
	}
	for _, bad := range []string{"", "sha256:", "sha256:zz", "md5:" + strings.Repeat("a", 64), strings.Repeat("a", 64), "sha256:" + strings.Repeat("g", 64)} {
		if _, err := ParseDigest(bad); err == nil {
			t.Fatalf("ParseDigest(%q) accepted", bad)
		}
	}
}

func TestContextResolver(t *testing.T) {
	s := mustOpen(t, Options{})
	meta, _, _ := s.PutEvents(testEvents(5, 1))
	ctx := WithResolver(context.Background(), s)
	events, err := ResolveFrom(ctx, meta.Digest)
	if err != nil || len(events) != 5 {
		t.Fatalf("ResolveFrom = %d events, %v", len(events), err)
	}
	if _, err := ResolveFrom(context.Background(), meta.Digest); err == nil {
		t.Fatal("ResolveFrom without a resolver should fail")
	}
}

// TestStoredBytesExactSize pins that an entry holds exactly the bytes the
// capacity bound charges: no encoder buffer slack behind the slice, after
// PutEvents, after Put and after spool recovery.
func TestStoredBytesExactSize(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	m1, _, err := s.PutEvents(testEvents(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := s.Put(bytes.NewReader(encode(t, testEvents(300, 7))))
	if err != nil {
		t.Fatal(err)
	}
	recovered := mustOpen(t, Options{Dir: dir})
	for _, st := range []*Store{s, recovered} {
		for _, m := range []Meta{m1, m2} {
			data, _, err := st.Bytes(m.Digest)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) != m.Bytes || cap(data) != len(data) {
				t.Errorf("%s: len %d cap %d, want both %d", m.Digest, len(data), cap(data), m.Bytes)
			}
		}
	}
}

// TestParseDigestCanonicalAllocsNothing pins that a canonical digest comes
// back as the very string passed in, so jobs naming it allocate no copy.
func TestParseDigestCanonicalAllocsNothing(t *testing.T) {
	in := "sha256:" + strings.Repeat("0123456789abcdef", 4)
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseDigest(in) }); n != 0 {
		t.Errorf("ParseDigest of a canonical digest: %v allocs, want 0", n)
	}
	if out, err := ParseDigest(in); err != nil || out != in {
		t.Fatalf("ParseDigest(%q) = %q, %v", in, out, err)
	}
}

// sparseEvents is a trace whose addresses are far from dense, so replay
// densification visibly relabels them.
func sparseEvents(n, base int) []trace.Event {
	events := testEvents(n, base)
	for i := range events {
		events[i].Addr = 1000 + 37*events[i].Addr
	}
	return events
}

// TestReplayMemoSharedBoundedReleased pins the replay memo: the first
// Replay decodes and densifies, later ones share that slice, and the memo
// stands in for the canonical bytes; the memos are bounded by the store's
// capacity, least recently used first; and a deleted trace takes its memo
// with it.
func TestReplayMemoSharedBoundedReleased(t *testing.T) {
	one := encode(t, sparseEvents(40, 1))
	// Room for the canonical bytes of two traces, and for the replay
	// events of only one.
	s := mustOpen(t, Options{MaxBytes: int64(len(one)) * 2})
	m1, _, _ := s.PutEvents(sparseEvents(40, 1))
	m2, _, _ := s.PutEvents(sparseEvents(40, 2))

	first, err := s.Replay(m1.Digest)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.NewReplay(sparseEvents(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range want.Events() {
		if first[i] != ev {
			t.Fatalf("replay event %d = %+v, want the densified %+v", i, first[i], ev)
		}
	}
	again, _ := s.Replay(m1.Digest)
	if &again[0] != &first[0] {
		t.Error("second Replay decoded again instead of sharing the memo")
	}
	// The memo stands in for the canonical bytes, which come back
	// identical.
	if data, _, err := s.Bytes(m1.Digest); err != nil || !bytes.Equal(data, one) {
		t.Fatalf("Bytes after Replay = %d bytes, %v; want the %d canonical bytes", len(data), err, len(one))
	}
	if got, _ := ResolveFrom(WithResolver(context.Background(), s), m1.Digest); &got[0] != &first[0] {
		t.Error("the store's resolver does not hand out the replay memo")
	}

	// The second trace's memo does not fit beside the first: the least
	// recently used memo goes, its entry stays.
	if _, err := s.Replay(m2.Digest); err != nil {
		t.Fatal(err)
	}
	if s.replayBytes > s.maxBytes {
		t.Errorf("replay memos hold %d bytes, capacity %d", s.replayBytes, s.maxBytes)
	}
	if _, ok := s.Stat(m1.Digest); !ok {
		t.Fatal("releasing a memo evicted its trace")
	}
	if data, _, err := s.Bytes(m1.Digest); err != nil || !bytes.Equal(data, one) {
		t.Fatalf("Bytes after the memo was released = %d bytes, %v", len(data), err)
	}
	if again, _ := s.Replay(m1.Digest); &again[0] == &first[0] {
		t.Error("a released memo was still shared")
	}

	// Deleting a trace releases its memo.
	s.Delete(m1.Digest)
	s.Delete(m2.Digest)
	if s.replayBytes != 0 {
		t.Errorf("replay memos hold %d bytes after every trace was deleted", s.replayBytes)
	}
	if _, err := s.Replay(m1.Digest); err != ErrNotFound {
		t.Errorf("Replay of a deleted trace: %v, want ErrNotFound", err)
	}
}
