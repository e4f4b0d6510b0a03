package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestSubscribeReplayThenLive(t *testing.T) {
	tl := NewTimeline(16)
	at := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		tl.AddAt(at, "e", fmt.Sprintf("m%d", i))
	}

	replay, sub := tl.SubscribeReplay(0, 8)
	defer tl.Unsubscribe(sub)
	if len(replay) != 3 {
		t.Fatalf("replay len = %d, want 3", len(replay))
	}
	for i, ev := range replay {
		if ev.Seq != uint64(i+1) || ev.Event.Msg != fmt.Sprintf("m%d", i) {
			t.Fatalf("replay[%d] = seq %d msg %q", i, ev.Seq, ev.Event.Msg)
		}
	}
	if tl.Subscribers() != 1 {
		t.Fatalf("Subscribers = %d, want 1", tl.Subscribers())
	}

	tl.AddAt(at, "e", "live")
	select {
	case ev := <-sub.C:
		if ev.Seq != 4 || ev.Event.Msg != "live" {
			t.Fatalf("live event = seq %d msg %q", ev.Seq, ev.Event.Msg)
		}
	default:
		t.Fatal("live event not delivered")
	}

	// Resume after seq 2 replays only 3..4.
	replay2, sub2 := tl.SubscribeReplay(2, 8)
	defer tl.Unsubscribe(sub2)
	if len(replay2) != 2 || replay2[0].Seq != 3 || replay2[1].Seq != 4 {
		t.Fatalf("resume replay = %+v", replay2)
	}
}

func TestUnsubscribeStopsDeliveryAndIsIdempotent(t *testing.T) {
	tl := NewTimeline(16)
	_, sub := tl.SubscribeReplay(0, 1)
	tl.Unsubscribe(sub)
	tl.Unsubscribe(sub)
	if tl.Subscribers() != 0 {
		t.Fatalf("Subscribers after unsubscribe = %d", tl.Subscribers())
	}
	tl.Add("e", "after")
	select {
	case ev := <-sub.C:
		t.Fatalf("unsubscribed channel received %+v", ev)
	default:
	}
}

// TestLastUnsubscribeReleasesMap: the subscriber map lives only while
// someone is subscribed, and a later subscriber still gets live events.
func TestLastUnsubscribeReleasesMap(t *testing.T) {
	tl := NewTimeline(16)
	_, a := tl.SubscribeReplay(0, 4)
	_, b := tl.SubscribeReplay(0, 4)
	tl.Unsubscribe(a)
	if tl.subs == nil || tl.Subscribers() != 1 {
		t.Fatalf("map released with a subscriber left: %v, %d", tl.subs, tl.Subscribers())
	}
	tl.Unsubscribe(b)
	tl.Unsubscribe(b)
	if tl.subs != nil {
		t.Fatalf("empty subscriber map kept alive: %v", tl.subs)
	}
	_, c := tl.SubscribeReplay(0, 4)
	defer tl.Unsubscribe(c)
	tl.Add("e", "after")
	select {
	case ev := <-c.C:
		if ev.Event.Msg != "after" {
			t.Fatalf("resubscriber got %+v", ev)
		}
	default:
		t.Fatal("resubscriber missed a live event")
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	tl := NewTimeline(16)
	_, sub := tl.SubscribeReplay(0, 1)
	defer tl.Unsubscribe(sub)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			tl.Add("e", "x") // must never block on the full channel
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Add blocked on a slow subscriber")
	}
	if got := sub.Missed(); got != 4 {
		t.Fatalf("Missed = %d, want 4 (buffer 1, 5 events)", got)
	}
}

func TestSeqSurvivesRingDrop(t *testing.T) {
	tl := NewTimeline(8)
	for i := 0; i < 20; i++ {
		tl.Add("e", fmt.Sprintf("m%d", i))
	}
	replay, sub := tl.SubscribeReplay(0, 8)
	defer tl.Unsubscribe(sub)
	if len(replay) == 0 {
		t.Fatal("no retained events")
	}
	// The last retained event must carry Seq == total appends (20), and
	// sequence numbers must be contiguous across the retained window.
	if last := replay[len(replay)-1]; last.Seq != 20 || last.Event.Msg != "m19" {
		t.Fatalf("last retained = seq %d msg %q, want seq 20 m19", last.Seq, last.Event.Msg)
	}
	for i := 1; i < len(replay); i++ {
		if replay[i].Seq != replay[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %d then %d", replay[i-1].Seq, replay[i].Seq)
		}
	}
}
