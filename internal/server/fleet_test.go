package server

import (
	"testing"
	"time"
)

// TestLogSamplerBurstThrottleRefill pins the access-log sampler: each route
// gets a burst of max(qps, 1) lines, is then throttled, refills at qps, and
// never borrows tokens from another route. A nil sampler logs everything.
func TestLogSamplerBurstThrottleRefill(t *testing.T) {
	ls := newLogSampler(2)
	t0 := time.Unix(1_700_000_000, 0)
	for i := 0; i < 2; i++ {
		if !ls.allow("GET /a", t0) {
			t.Fatalf("burst line %d refused", i)
		}
	}
	if ls.allow("GET /a", t0) {
		t.Fatal("line beyond the burst allowed")
	}
	if !ls.allow("GET /b", t0) || !ls.allow("GET /b", t0) {
		t.Fatal("a throttled route drained an independent route's bucket")
	}
	if ls.allow("GET /a", t0.Add(400*time.Millisecond)) {
		t.Fatal("allowed before a whole token refilled at 2/s")
	}
	if !ls.allow("GET /a", t0.Add(600*time.Millisecond)) {
		t.Fatal("refused after a token refilled")
	}
	if ls.allow("GET /a", t0.Add(600*time.Millisecond)) {
		t.Fatal("refill overshot one token")
	}

	// Sub-1 qps still bursts one line, then waits 1/qps for the next.
	slow := newLogSampler(0.5)
	if !slow.allow("GET /a", t0) || slow.allow("GET /a", t0.Add(time.Second)) {
		t.Fatal("qps 0.5: want one line, then throttled for 2s")
	}
	if !slow.allow("GET /a", t0.Add(2*time.Second)) {
		t.Fatal("qps 0.5: refused after 2s")
	}

	var off *logSampler = newLogSampler(0)
	for i := 0; i < 100; i++ {
		if !off.allow("GET /a", t0) {
			t.Fatal("nil sampler refused a line")
		}
	}
}
