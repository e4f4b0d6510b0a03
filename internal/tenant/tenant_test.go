package tenant

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		name    string
		key     string
		weight  int
		limited bool
	}{
		{spec: "alice:s3cret", name: "alice", key: "s3cret", weight: 1, limited: false},
		{spec: "alice:s3cret:2", name: "alice", key: "s3cret", weight: 1, limited: true},
		{spec: "alice:s3cret:2:10", name: "alice", key: "s3cret", weight: 1, limited: true},
		{spec: "alice:s3cret:2:10:3", name: "alice", key: "s3cret", weight: 3, limited: true},
		{spec: "alice:s3cret:0::5", name: "alice", key: "s3cret", weight: 5, limited: false},
		{spec: " alice : s3cret ", name: "alice", key: "s3cret", weight: 1},
		{spec: "alice", wantErr: true},
		{spec: "", wantErr: true},
		{spec: ":key", wantErr: true},
		{spec: "alice:", wantErr: true},
		{spec: "alice:k:notanumber", wantErr: true},
		{spec: "alice:k:-1", wantErr: true},
		{spec: "alice:k:1:-2", wantErr: true},
		{spec: "alice:k:1:1:0", wantErr: true},
		{spec: "alice:k:1:1:x", wantErr: true},
		{spec: "alice:k:NaN", wantErr: true},
		{spec: "alice:k:+Inf", wantErr: true},
		{spec: "alice:k:1:NaN", wantErr: true},
		{spec: "alice:k:1:Inf", wantErr: true},
		{spec: "a:b:1:1:1:extra", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if got.Name != tc.name || got.Key != tc.key || got.Weight != tc.weight || got.Limited() != tc.limited {
			t.Errorf("ParseSpec(%q) = {%s %s w=%d limited=%v}, want {%s %s w=%d limited=%v}",
				tc.spec, got.Name, got.Key, got.Weight, got.Limited(), tc.name, tc.key, tc.weight, tc.limited)
		}
	}
}

func TestParseSpecsAndLoadFile(t *testing.T) {
	ts, err := ParseSpecs("alice:ka:5, bob:kb:1:2:2 ,")
	if err != nil {
		t.Fatalf("ParseSpecs: %v", err)
	}
	if len(ts) != 2 || ts[0].Name != "alice" || ts[1].Name != "bob" || ts[1].Weight != 2 {
		t.Fatalf("ParseSpecs parsed wrong: %+v", ts)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "keys")
	body := "# fleet keys\nalice:ka:5\n\nbob:kb:1:2:2\n"
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if len(fromFile) != 2 || fromFile[0].Name != "alice" || fromFile[1].Name != "bob" {
		t.Fatalf("LoadFile parsed wrong: %+v", fromFile)
	}

	// Load dispatches between inline specs and @file / bare-path form.
	if ts, err := Load("@" + path); err != nil || len(ts) != 2 {
		t.Fatalf("Load(@path) = %v, %v", ts, err)
	}
	if ts, err := Load(path); err != nil || len(ts) != 2 {
		t.Fatalf("Load(path) = %v, %v", ts, err)
	}
	if ts, err := Load("carol:kc"); err != nil || len(ts) != 1 || ts[0].Name != "carol" {
		t.Fatalf("Load(inline) = %v, %v", ts, err)
	}
	if ts, err := Load(""); err != nil || ts != nil {
		t.Fatalf("Load(empty) = %v, %v", ts, err)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("LoadFile(missing): want error")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("alice:ka\nnope\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("LoadFile(bad line): want error with line number")
	}
}

func TestRegistry(t *testing.T) {
	alice := NewTenant("alice", "ka", 5, 10, 1)
	bob := NewTenant("bob", "kb", 0, 0, 2)
	r, err := NewRegistry([]*Tenant{alice, bob}, 0, 0)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	if got, ok := r.Lookup("ka"); !ok || got != alice {
		t.Fatalf("Lookup(ka) = %v, %v", got, ok)
	}
	if got, ok := r.Lookup(""); !ok || got != r.Anonymous() {
		t.Fatalf("Lookup(empty) = %v, %v; want anonymous", got, ok)
	}
	if _, ok := r.Lookup("wrong"); ok {
		t.Fatal("Lookup(wrong): want false")
	}
	if r.Anonymous().Limited() {
		t.Fatal("anonymous tenant should be unlimited by default")
	}
	var names []string
	for _, tn := range r.Tenants() {
		names = append(names, tn.Name)
	}
	if want := []string{"alice", AnonymousName, "bob"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Tenants() order = %v, want %v", names, want)
	}

	for _, bad := range [][]*Tenant{
		{NewTenant("", "k", 0, 0, 1)},
		{NewTenant(AnonymousName, "k", 0, 0, 1)},
		{NewTenant("x", "", 0, 0, 1)},
		{NewTenant("x", "k1", 0, 0, 1), NewTenant("x", "k2", 0, 0, 1)},
		{NewTenant("x", "k", 0, 0, 1), NewTenant("y", "k", 0, 0, 1)},
	} {
		if _, err := NewRegistry(bad, 0, 0); err == nil {
			t.Errorf("NewRegistry(%+v): want error", bad)
		}
	}

	// A rate-limited anonymous tenant throttles keyless submitters.
	r2, err := NewRegistry(nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Anonymous().Limited() {
		t.Fatal("anonymous tenant should be limited when anonRate > 0")
	}
}

// TestRegistryRejectsSubOneBurst: a burst below 1 can never admit a
// submission of one token, so the registry refuses it, keyed or
// anonymous, naming the tenant.
func TestRegistryRejectsSubOneBurst(t *testing.T) {
	low, err := ParseSpec("low:k1:1:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry([]*Tenant{low}, 0, 0); err == nil || !strings.Contains(err.Error(), `"low"`) {
		t.Errorf("NewRegistry(burst 0.5) = %v, want an error naming tenant low", err)
	}
	if _, err := NewRegistry(nil, 1, 0.5); err == nil || !strings.Contains(err.Error(), AnonymousName) {
		t.Errorf("NewRegistry(anon burst 0.5) = %v, want an error naming the anonymous tenant", err)
	}
}

func TestBucketRefillAndHint(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBucket(2, 4) // 2 tokens/sec, burst 4, born full

	for i := 0; i < 4; i++ {
		if _, ok := b.Take(t0, 1); !ok {
			t.Fatalf("take %d from full burst-4 bucket refused", i)
		}
	}
	hint, ok := b.Take(t0, 1)
	if ok {
		t.Fatal("empty bucket admitted a take")
	}
	if want := 500 * time.Millisecond; hint != want {
		t.Fatalf("retry hint = %v, want %v (1 token at 2/sec)", hint, want)
	}

	// 1.5s later the bucket holds 3 tokens; a 4-token take needs 0.5s more.
	t1 := t0.Add(1500 * time.Millisecond)
	hint, ok = b.Take(t1, 4)
	if ok {
		t.Fatal("3-token bucket admitted a 4-token take")
	}
	if want := 500 * time.Millisecond; hint != want {
		t.Fatalf("retry hint = %v, want %v", hint, want)
	}
	if _, ok := b.Take(t1, 3); !ok {
		t.Fatal("3-token bucket refused a 3-token take")
	}

	// Refill caps at burst; a take larger than burst hints the full fill time.
	t2 := t1.Add(time.Hour)
	if lvl := b.Level(t2); lvl != 4 {
		t.Fatalf("level after long idle = %v, want burst 4", lvl)
	}
	hint, ok = b.Take(t2, 10)
	if ok {
		t.Fatal("take larger than burst admitted")
	}
	if hint != 0 {
		t.Fatalf("full bucket's >burst hint = %v, want 0 (bucket already full)", hint)
	}

	// Time going backwards must not refill or panic.
	if _, ok := b.Take(t2.Add(-time.Hour), 4); !ok {
		t.Fatal("bucket lost its tokens on clock skew")
	}

	// Unlimited tenants always admit.
	unl := NewTenant("u", "k", 0, 0, 1)
	if _, ok := unl.Take(t0, 1000); !ok {
		t.Fatal("unlimited tenant refused")
	}
	if _, limited := unl.TokenLevel(t0); limited {
		t.Fatal("unlimited tenant reported a token level")
	}
	lim := NewTenant("l", "k", 2, 4, 1)
	if lvl, limited := lim.TokenLevel(t0); !limited || lvl != 4 {
		t.Fatalf("limited TokenLevel = %v, %v", lvl, limited)
	}
}

// popAll drains n items, recording the order of tenants served.
func popAll[T any](t *testing.T, q *Queue[T], n int) []T {
	t.Helper()
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		item, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop %d returned closed", i)
		}
		out = append(out, item)
	}
	return out
}

func TestDRRInterleavesEqualWeights(t *testing.T) {
	q := NewQueue[string](100)
	for i := 0; i < 6; i++ {
		if r := q.PushBatch("a", 1, []string{"a"}); r != PushOK {
			t.Fatalf("push a: %v", r)
		}
	}
	for i := 0; i < 3; i++ {
		if r := q.PushBatch("b", 1, []string{"b"}); r != PushOK {
			t.Fatalf("push b: %v", r)
		}
	}
	got := popAll(t, q, 9)
	// Equal weights alternate while both have work, then a drains alone.
	want := []string{"a", "b", "a", "b", "a", "b", "a", "a", "a"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DRR order = %v, want %v", got, want)
	}
}

func TestDRRWeightedShare(t *testing.T) {
	q := NewQueue[string](100)
	for i := 0; i < 8; i++ {
		q.PushBatch("heavy", 2, []string{"h"})
	}
	for i := 0; i < 4; i++ {
		q.PushBatch("light", 1, []string{"l"})
	}
	got := popAll(t, q, 12)
	// Weight 2 drains two per round against light's one.
	want := []string{"h", "h", "l", "h", "h", "l", "h", "h", "l", "h", "h", "l"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("weighted DRR order = %v, want %v", got, want)
	}
}

func TestDRRSingleTenantIsFIFO(t *testing.T) {
	q := NewQueue[int](100)
	for i := 0; i < 20; i++ {
		q.PushBatch("only", 1, []int{i})
	}
	got := popAll(t, q, 20)
	for i, v := range got {
		if v != i {
			t.Fatalf("single-tenant order broken at %d: %v", i, got)
		}
	}
}

func TestDRRDepthBoundAndBatchAtomicity(t *testing.T) {
	q := NewQueue[int](3)
	for i := 0; i < 3; i++ {
		if r := q.PushBatch("a", 1, []int{i}); r != PushOK {
			t.Fatalf("push %d: %v", i, r)
		}
	}
	if r := q.PushBatch("a", 1, []int{99}); r != PushFull {
		t.Fatalf("push over depth = %v, want PushFull", r)
	}
	// Other tenants are unaffected by a's full queue.
	if r := q.PushBatch("b", 1, []int{1}); r != PushOK {
		t.Fatalf("push b with a full = %v", r)
	}
	// Batch that would overflow is refused whole — nothing admitted.
	if r := q.PushBatch("b", 1, []int{2, 3, 4}); r != PushFull {
		t.Fatalf("overflowing batch = %v, want PushFull", r)
	}
	if got := q.Depths()["b"]; got != 1 {
		t.Fatalf("b depth after refused batch = %d, want 1", got)
	}
	if r := q.PushBatch("b", 1, []int{2, 3}); r != PushOK {
		t.Fatalf("fitting batch = %v", r)
	}
	if got, want := q.Len(), 6; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestDRRCloseDrainsThenStops(t *testing.T) {
	q := NewQueue[int](10)
	q.PushBatch("a", 1, []int{1})
	q.PushBatch("a", 1, []int{2})
	q.Close()
	if r := q.PushBatch("a", 1, []int{3}); r != PushClosed {
		t.Fatalf("push after close = %v, want PushClosed", r)
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("first drained pop = %v, %v", v, ok)
	}
	if v, ok := q.Pop(); !ok || v != 2 {
		t.Fatalf("second drained pop = %v, %v", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after drain should report closed")
	}
}

func TestDRRPopBlocksUntilPush(t *testing.T) {
	q := NewQueue[int](10)
	got := make(chan int, 1)
	go func() {
		v, ok := q.Pop()
		if ok {
			got <- v
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.PushBatch("a", 1, []int{42})
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("blocked pop got %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop never woke after Push")
	}
}

func TestDRRConcurrent(t *testing.T) {
	q := NewQueue[int](1000)
	const perTenant = 200
	tenants := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for _, name := range tenants {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				for q.PushBatch(name, 1, []int{i}) != PushOK {
					time.Sleep(time.Millisecond)
				}
			}
		}(name)
	}
	var popped sync.WaitGroup
	total := perTenant * len(tenants)
	count := make(chan int, total)
	for w := 0; w < 4; w++ {
		popped.Add(1)
		go func() {
			defer popped.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				count <- v
			}
		}()
	}
	wg.Wait()
	q.Close()
	popped.Wait()
	if len(count) != total {
		t.Fatalf("popped %d items, want %d", len(count), total)
	}
}
