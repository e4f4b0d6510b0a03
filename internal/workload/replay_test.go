package workload

import (
	"testing"

	"pcmcomp/internal/trace"
)

// TestReplayDensifiesAndCycles checks the densify rule; cycling through
// the events is lifetime.Run's, over whatever Events returns.
func TestReplayDensifiesAndCycles(t *testing.T) {
	mk := func(addr int, fill byte) trace.Event {
		ev := trace.Event{Addr: addr}
		for i := range ev.Data {
			ev.Data[i] = fill
		}
		return ev
	}
	// Sparse physical addresses: 900, 17, 900 again, 5000. Each event
	// keeps its payload; only the address is renumbered.
	rep, err := NewReplay([]trace.Event{mk(900, 1), mk(17, 2), mk(900, 3), mk(5000, 4)})
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Events()
	wantAddrs := []int{0, 1, 0, 2} // first-appearance order
	if len(got) != len(wantAddrs) {
		t.Fatalf("%d events, want %d", len(got), len(wantAddrs))
	}
	for i, want := range wantAddrs {
		if got[i].Addr != want || got[i].Data[0] != byte(i+1) {
			t.Fatalf("event %d: addr %d fill %d, want addr %d fill %d", i, got[i].Addr, got[i].Data[0], want, i+1)
		}
	}
	if _, err := NewReplay(nil); err == nil {
		t.Fatal("NewReplay(empty) should fail")
	}
	if _, err := NewReplay([]trace.Event{{Addr: -1}}); err == nil {
		t.Fatal("NewReplay(negative addr) should fail")
	}
}

func TestAdversarialPreset(t *testing.T) {
	prof, err := ByName(AdversarialName)
	if err != nil {
		t.Fatalf("ByName(adversarial): %v", err)
	}
	if prof.Name != AdversarialName {
		t.Fatalf("profile name = %q", prof.Name)
	}
	// The stress preset is not one of the paper's Table III models.
	for _, name := range Names() {
		if name == AdversarialName {
			t.Fatal("adversarial must not appear in the Table III Names()")
		}
	}

	g, err := NewGenerator(prof, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Every line alternates all-ones, all-zeros, all-ones, ... — each
	// rewrite flips all 512 bits of the line.
	writes := make(map[int]int)
	for i := 0; i < 400; i++ {
		ev := g.Next()
		want := byte(0x00)
		if writes[ev.Addr]%2 == 0 {
			want = 0xFF
		}
		for j, b := range ev.Data {
			if b != want {
				t.Fatalf("event %d (addr %d, write %d): byte %d = %#x, want %#x",
					i, ev.Addr, writes[ev.Addr], j, b, want)
			}
		}
		writes[ev.Addr]++
	}
	// The skew must concentrate writes: the hottest line takes a plurality.
	if writes[0] < 100 {
		t.Fatalf("hottest line got %d/400 writes; skew too weak for a stress case", writes[0])
	}

	// Determinism: the same (lines, seed) pair replays bit-identically.
	g1, _ := NewGenerator(prof, 8, 7)
	g2, _ := NewGenerator(prof, 8, 7)
	for i := 0; i < 100; i++ {
		if g1.Next() != g2.Next() {
			t.Fatalf("adversarial stream diverged at event %d", i)
		}
	}
}
