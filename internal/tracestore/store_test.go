package tracestore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// download decodes a stored trace from its canonical bytes, as a
// ?download=1 client does.
func download(s *Store, digest string) ([]trace.Event, error) {
	data, _, err := s.Bytes(digest)
	if err != nil {
		return nil, err
	}
	return trace.Read(bytes.NewReader(data))
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
	got, err := download(s, meta.Digest)
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
	if _, err := download(s, "sha256:"+strings.Repeat("0", 64)); err != ErrNotFound {
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
	got, err := download(s2, meta.Digest)
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
	if _, err := download(s, m1.Digest); err != nil {
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
	tr, err := ResolveFrom(ctx, meta.Digest)
	if err != nil || len(tr.Events) != 5 || tr.Memo == nil {
		t.Fatalf("ResolveFrom = %d events, memo %p, %v", len(tr.Events), tr.Memo, err)
	}
	if _, err := ResolveFrom(context.Background(), meta.Digest); err == nil {
		t.Fatal("ResolveFrom without a resolver should fail")
	}
}

// TestStoredBytesExactSize pins that an entry's replay events and address
// table are exactly sized, with no slack behind either slice, after
// PutEvents, after Put and after spool recovery, and that Bytes hands back
// as many bytes as the capacity bound charges.
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
			e := st.entries[m.Digest]
			if e == nil {
				t.Fatalf("%s not stored", m.Digest)
			}
			if len(e.replay) != m.Events || cap(e.replay) != len(e.replay) {
				t.Errorf("%s: replay len %d cap %d, want both %d", m.Digest, len(e.replay), cap(e.replay), m.Events)
			}
			if len(e.addrs) != m.Lines || cap(e.addrs) != len(e.addrs) {
				t.Errorf("%s: addrs len %d cap %d, want both %d", m.Digest, len(e.addrs), cap(e.addrs), m.Lines)
			}
			data, _, err := st.Bytes(m.Digest)
			if err != nil || int64(len(data)) != m.Bytes {
				t.Errorf("%s: Bytes = %d bytes, %v; want %d", m.Digest, len(data), err, m.Bytes)
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

// TestReplaySharedAndReencoded pins the one stored form: every Replay
// shares the densified slice built at ingest and the entry's one memo, the
// resolver hands out the same pair, Bytes re-encodes the identical canonical bytes, and a
// deleted trace is ErrNotFound on both routes.
func TestReplaySharedAndReencoded(t *testing.T) {
	events := sparseEvents(40, 1)
	one := encode(t, events)
	s := mustOpen(t, Options{})
	m, _, err := s.PutEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum := trace.Summarize(events); m.Lines != sum.DistinctLines || m.MaxAddr != sum.MaxAddr {
		t.Errorf("meta = %+v, want the footprint %+v", m, sum)
	}

	stored, err := s.Replay(m.Digest)
	if err != nil {
		t.Fatal(err)
	}
	first := stored.Events
	want, err := workload.NewReplay(events)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range want.Events() {
		if first[i] != ev {
			t.Fatalf("replay event %d = %+v, want the densified %+v", i, first[i], ev)
		}
	}
	if again, _ := s.Replay(m.Digest); &again.Events[0] != &first[0] || again.Memo != stored.Memo {
		t.Error("second Replay did not share the stored slice and memo")
	}
	if got, _ := ResolveFrom(WithResolver(context.Background(), s), m.Digest); &got.Events[0] != &first[0] || got.Memo != stored.Memo {
		t.Error("the store's resolver does not hand out the stored slice and memo")
	}
	if data, _, err := s.Bytes(m.Digest); err != nil || !bytes.Equal(data, one) {
		t.Fatalf("Bytes = %d bytes, %v; want the %d canonical bytes", len(data), err, len(one))
	}
	if st := s.Stats(); st.Fetches != 4 {
		t.Errorf("fetches = %d, want 4 (three Replays and one Bytes)", st.Fetches)
	}

	s.Delete(m.Digest)
	if _, err := s.Replay(m.Digest); err != ErrNotFound {
		t.Errorf("Replay of a deleted trace: %v, want ErrNotFound", err)
	}
	if _, _, err := s.Bytes(m.Digest); err != ErrNotFound {
		t.Errorf("Bytes of a deleted trace: %v, want ErrNotFound", err)
	}
}

// heldBytes is what the store's entries hold: replay events and address
// tables. Callers hold s.mu.
func (s *Store) heldBytes() int64 {
	var n int64
	for _, e := range s.entries {
		n += int64(cap(e.replay))*int64(unsafe.Sizeof(trace.Event{})) + int64(cap(e.addrs))*int64(unsafe.Sizeof(0))
	}
	return n
}

// soakTrace draws one random trace. Half are the store's worst case for
// held memory against canonical bytes: every event a new line with a
// one-byte address.
func soakTrace(r *rand.Rand) []trace.Event {
	events := make([]trace.Event, 8+r.IntN(120))
	dense := r.IntN(2) == 0
	for i := range events {
		if dense {
			events[i].Addr = i
		} else {
			events[i].Addr = r.IntN(1 << 24)
		}
		for j := range events[i].Data {
			events[i].Data[j] = byte(r.Uint32())
		}
	}
	return events
}

// TestTraceStoreBoundedSoak runs thousands of Put/Replay/Bytes/Delete
// operations over distinct traces in a store with room for a few, and
// after every one checks the bounds: canonical bytes within MaxBytes, held
// replay events and address tables within 1.25× MaxBytes, and the entry
// map and the LRU list in step. A second goroutine replays and downloads
// the traces put so far throughout, as concurrent jobs and fetches do.
func TestTraceStoreBoundedSoak(t *testing.T) {
	const maxBytes = 4 * 65 * 128
	s := mustOpen(t, Options{MaxBytes: maxBytes})
	r := rand.New(rand.NewPCG(1, 2))

	put := make(chan string, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var digest string
		for {
			select {
			case <-stop:
				return
			case digest = <-put:
			default:
			}
			if _, err := s.Replay(digest); err != nil && err != ErrNotFound {
				t.Errorf("concurrent Replay: %v", err)
			}
			if _, _, err := s.Bytes(digest); err != nil && err != ErrNotFound {
				t.Errorf("concurrent Bytes: %v", err)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var digests []string
	for op := 0; op < 4000; op++ {
		// Mostly the latest traces, so operations hit the store as well
		// as miss it.
		var digest string
		if len(digests) > 0 {
			digest = digests[len(digests)-1-r.IntN(min(len(digests), 8))]
		}
		switch k := r.IntN(10); {
		case k < 4 || digest == "":
			events := soakTrace(r)
			var m Meta
			var err error
			if k%2 == 0 {
				m, _, err = s.PutEvents(events)
			} else {
				m, _, err = s.Put(bytes.NewReader(encode(t, events)))
			}
			if err != nil {
				t.Fatalf("op %d: put: %v", op, err)
			}
			digests = append(digests, m.Digest)
			select {
			case put <- m.Digest:
			default:
			}
		case k < 7:
			if _, err := s.Replay(digest); err != nil && err != ErrNotFound {
				t.Fatalf("op %d: Replay: %v", op, err)
			}
		case k < 9:
			data, m, err := s.Bytes(digest)
			if err == nil {
				sum := sha256.Sum256(data)
				if got := DigestPrefix + hex.EncodeToString(sum[:]); got != digest || int64(len(data)) != m.Bytes {
					t.Fatalf("op %d: Bytes of %s re-encoded %d bytes hashing to %s", op, digest, len(data), got)
				}
			} else if err != ErrNotFound {
				t.Fatalf("op %d: Bytes: %v", op, err)
			}
		default:
			s.Delete(digest)
		}

		st := s.Stats()
		s.mu.Lock()
		held, entries, listed := s.heldBytes(), len(s.entries), s.order.Len()
		s.mu.Unlock()
		if st.StoredBytes > maxBytes {
			t.Fatalf("op %d: %d canonical bytes stored, bound %d", op, st.StoredBytes, maxBytes)
		}
		if 4*held > 5*maxBytes {
			t.Fatalf("op %d: %d bytes held, over 1.25x the %d bound", op, held, maxBytes)
		}
		if entries != listed {
			t.Fatalf("op %d: %d entries but %d in the LRU list", op, entries, listed)
		}
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("the soak never filled the store")
	}
}
