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
	var bin, ndjson bytes.Buffer
	if err := Write(&bin, events); err != nil {
		f.Fatal(err)
	}
	if err := WriteNDJSON(&ndjson, events); err != nil {
		f.Fatal(err)
	}
	gzipped := func(b []byte) []byte {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(b)
		zw.Close()
		return gz.Bytes()
	}
	for _, seed := range [][]byte{bin.Bytes(), ndjson.Bytes()} {
		f.Add(seed)
		f.Add(gzipped(seed))
		f.Add(seed[:len(seed)/2])
	}
	overflow := "PCMT\x01\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" + string(make([]byte, 64))
	for _, s := range []string{"", "PCMT", "PCMT\x01\xff\xff\xff\x03", "{", overflow,
		"{\"addr\":-1}\n", "\x1f\x8b"} {
		f.Add([]byte(s))
	}
	// gzip-wrapped PCMT, the compressed container: cut short, with an
	// implausible count, with an address that overflows int, with no
	// events, and wrapped twice.
	gzBin := gzipped(bin.Bytes())
	for _, seed := range [][]byte{gzBin[:len(gzBin)/2], gzipped([]byte("PCMT\x01\xff\xff\xff\x03")),
		gzipped([]byte(overflow)), gzipped([]byte("PCMT\x01\x00")), gzipped(gzBin)} {
		f.Add(seed)
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
