package trace

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	r := rng.New(1)
	events := make([]Event, 500)
	for i := range events {
		events[i].Addr = r.Intn(10000)
		for w := 0; w < 8; w++ {
			events[i].Data.SetWord(w, r.Uint64())
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i].Addr != events[i].Addr || !block.Equal(&got[i].Data, &events[i].Data) {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE....")); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	events := []Event{{Addr: 1}, {Addr: 2}}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 5, 6, 10, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	// Write-back traces are value-structured (zero lines, repeated words);
	// gzip-wrapped PCMT should shrink them a lot and still decode.
	r := rng.New(3)
	events := make([]Event, 2000)
	for i := range events {
		events[i].Addr = r.Intn(256)
		if i%3 != 0 { // most lines zero or repeated, like real traces
			v := uint64(r.Intn(4))
			for w := 0; w < 8; w++ {
				events[i].Data.SetWord(w, v)
			}
		} else {
			events[i].Data.SetWord(0, r.Uint64())
		}
	}
	var plain, zipped bytes.Buffer
	if err := Write(&plain, events); err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(&zipped)
	if err := Write(zw, events); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if zipped.Len() >= plain.Len()/2 {
		t.Fatalf("gzip saved too little: %d vs %d bytes", zipped.Len(), plain.Len())
	}
	got, err := Decode(&zipped)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d differs after gzip round trip", i)
		}
	}
}

func TestNegativeAddressRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Event{{Addr: -1}}); err == nil {
		t.Fatal("negative address accepted")
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{{Addr: 5}, {Addr: 5}, {Addr: 9}, {Addr: 0}}
	s := Summarize(events)
	if s.Events != 4 || s.DistinctLines != 3 || s.MaxAddr != 9 {
		t.Fatalf("stats = %+v", s)
	}
	if s := Summarize(nil); s.Events != 0 || s.DistinctLines != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}
