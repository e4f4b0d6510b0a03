package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pcmcomp/internal/trace"
	"pcmcomp/internal/tracestore"
)

func TestListProfiles(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectGeneration(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.pcmt")
	if err := run([]string{"-app", "milc", "-events", "500", "-lines", "128", "-o", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 500 {
		t.Fatalf("trace has %d events, want 500", len(evs))
	}
}

// TestGzipOutput writes a .gz path under -format auto: the file must be
// gzip-wrapped PCMT that decodes to the same events as -format binary,
// and gzip must actually shrink it (write-back payloads are
// value-structured: zero lines, repeated words).
func TestGzipOutput(t *testing.T) {
	dir := t.TempDir()
	gz := filepath.Join(dir, "t.pcmt.gz")
	bin := filepath.Join(dir, "t.pcmt")
	args := []string{"-app", "sjeng", "-events", "300", "-lines", "64"}
	if err := run(append(args, "-o", gz)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-o", bin, "-format", "binary")); err != nil {
		t.Fatal(err)
	}
	zipped, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gzip.NewReader(bytes.NewReader(zipped))
	if err != nil {
		t.Fatalf("not a gzip file: %v", err)
	}
	inner, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inner, plain) {
		t.Fatal("gzip payload is not the -format binary PCMT bytes")
	}
	evs, err := trace.Decode(bytes.NewReader(zipped))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 300 {
		t.Fatalf("gz trace has %d events, want 300", len(evs))
	}
	if len(zipped) >= len(plain)/2 {
		t.Fatalf("gzip saved too little: %d vs %d bytes", len(zipped), len(plain))
	}
}

func TestIsGzipPath(t *testing.T) {
	if !isGzipPath("a.pcmt.gz") || !isGzipPath("b.pcmtz") {
		t.Error("gz suffixes not detected")
	}
	if isGzipPath("a.pcmt") {
		t.Error("plain suffix misdetected")
	}
}

func TestUnknownApp(t *testing.T) {
	if err := run([]string{"-app", "nope"}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestUnknownFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.pcmt")
	if err := run([]string{"-app", "gcc", "-events", "10", "-o", out, "-format", "xml"}); err == nil {
		t.Fatal("unknown -format accepted")
	}
}

// TestFormatRoundTrip pins the cross-format dedup contract end to end:
// the same generator stream written as binary, as NDJSON and as gzip
// must decode to identical events and land in a trace store under one
// digest.
func TestFormatRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "t.pcmt")
	nd := filepath.Join(dir, "t.ndjson")
	gz := filepath.Join(dir, "t.pcmt.gz")
	for _, f := range []struct{ path, format string }{{bin, "binary"}, {nd, "ndjson"}, {gz, "auto"}} {
		if err := run([]string{"-app", "milc", "-events", "400", "-lines", "128", "-seed", "7",
			"-o", f.path, "-format", f.format}); err != nil {
			t.Fatalf("%s: %v", f.format, err)
		}
	}

	store, err := tracestore.Open(tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var metas []tracestore.Meta
	for _, path := range []string{bin, nd, gz} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		meta, _, err := store.Put(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		metas = append(metas, meta)
	}
	for i, path := range []string{nd, gz} {
		if metas[i+1].Digest != metas[0].Digest {
			t.Fatalf("%s hashed to %s, binary to %s", filepath.Base(path), metas[i+1].Digest, metas[0].Digest)
		}
	}
	if n := len(store.List()); n != 1 {
		t.Fatalf("store holds %d traces after cross-format upload, want 1", n)
	}

	data, _, err := store.Bytes(metas[0].Digest)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 400 {
		t.Fatalf("stored trace has %d events, want 400", len(evs))
	}
	f, err := os.Open(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d differs after store round-trip: %+v vs %+v", i, evs[i], want[i])
		}
	}
}
