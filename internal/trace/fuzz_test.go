package trace

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// FuzzDecode feeds Decode arbitrary bytes, the form uploads and the
// lifetime CLI's -trace file arrive in. It must return an error or events,
// never panic, and any events it returns must survive a round trip
// through Write and Decode unchanged.
func FuzzDecode(f *testing.F) {
	events := []Event{{Addr: 0}, {Addr: 7}, {Addr: 1 << 40}}
	for i := range events {
		for b := range events[i].Data {
			events[i].Data[b] = byte(i*64 + b)
		}
	}
	var bin, ndjson, stream bytes.Buffer
	if err := Write(&bin, events); err != nil {
		f.Fatal(err)
	}
	if err := WriteNDJSON(&ndjson, events); err != nil {
		f.Fatal(err)
	}
	sw, err := NewStreamWriter(&stream, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range events {
		if err := sw.Append(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{bin.Bytes(), ndjson.Bytes(), stream.Bytes()} {
		f.Add(seed)
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(seed)
		zw.Close()
		f.Add(gz.Bytes())
		f.Add(seed[:len(seed)/2])
	}
	for _, s := range []string{"", "PCMT", "PCMS\x01", "PCMT\x01\xff\xff\xff\x03", "{",
		"PCMT\x01\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" + string(make([]byte, 64)),
		"PCMS\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" + string(make([]byte, 64)) + "\x00", "{\"addr\":-1}\n", "\x1f\x8b"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatal("Decode returned no events and no error")
		}
		var buf bytes.Buffer
		if err := Write(&buf, got); err != nil {
			t.Fatalf("decoded events do not encode: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("round trip kept %d of %d events", len(again), len(got))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("event %d: %+v round-trips to %+v", i, got[i], again[i])
			}
		}
	})
}
