package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pcmcomp/internal/block"
)

func testEvents(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i].Addr = (i * 7) % 100
		for j := range events[i].Data {
			events[i].Data[j] = byte(i + j)
		}
	}
	return events
}

func TestNDJSONRoundTrip(t *testing.T) {
	want := testEvents(25)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, want); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatalf("ReadNDJSON: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// ndjsonLine renders one well-formed record for hand-built inputs.
func ndjsonLine(addr int) string {
	var b block.Block
	for i := range b {
		b[i] = byte(addr + i)
	}
	return fmt.Sprintf(`{"addr":%d,"data":"%s"}`, addr, base64.StdEncoding.EncodeToString(b[:]))
}

func TestNDJSONCRLFLineEndings(t *testing.T) {
	// Windows-produced traces terminate lines with \r\n; decode must strip
	// the carriage returns and yield the same events as the \n form.
	lf := ndjsonLine(1) + "\n" + ndjsonLine(2) + "\n"
	crlf := ndjsonLine(1) + "\r\n" + ndjsonLine(2) + "\r\n"
	want, err := ReadNDJSON(strings.NewReader(lf))
	if err != nil {
		t.Fatalf("ReadNDJSON(LF): %v", err)
	}
	got, err := ReadNDJSON(strings.NewReader(crlf))
	if err != nil {
		t.Fatalf("ReadNDJSON(CRLF): %v", err)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("CRLF decode differs from LF decode")
	}
}

func TestNDJSONEmptyTrace(t *testing.T) {
	for _, input := range []string{"", "\n\n", "\r\n", "   \n"} {
		_, err := ReadNDJSON(strings.NewReader(input))
		if !errors.Is(err, ErrEmptyTrace) {
			t.Fatalf("ReadNDJSON(%q) = %v, want ErrEmptyTrace", input, err)
		}
	}
}

func TestNDJSONTruncatedTail(t *testing.T) {
	// A complete line followed by a record cut off mid-JSON with no
	// trailing newline: the classic interrupted-upload shape.
	full := ndjsonLine(1) + "\n"
	input := full + `{"addr":2,"data":"AAAA`
	_, err := ReadNDJSON(strings.NewReader(input))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadNDJSON(truncated) = %v, want ErrTruncated", err)
	}
	// The same malformed record terminated by a newline is a malformed
	// line, not a truncation.
	_, err = ReadNDJSON(strings.NewReader(full + `{"addr":2,"data":"AAAA` + "\n"))
	if err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadNDJSON(malformed mid-line) = %v, want non-truncation error", err)
	}
	// A final line that is complete JSON but missing its newline is fine.
	got, err := ReadNDJSON(strings.NewReader(full + ndjsonLine(2)))
	if err != nil || len(got) != 2 {
		t.Fatalf("ReadNDJSON(no final newline) = %d events, %v; want 2, nil", len(got), err)
	}
}

func TestNDJSONOversizedRecord(t *testing.T) {
	huge := `{"addr":1,"data":"` + strings.Repeat("A", MaxNDJSONRecord) + `"}` + "\n"
	_, err := ReadNDJSON(strings.NewReader(huge))
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("ReadNDJSON(oversized) = %v, want ErrRecordTooLarge", err)
	}
}

func TestNDJSONMalformedRecords(t *testing.T) {
	cases := []struct {
		name, line string
	}{
		{"not json", "hello world"},
		{"missing addr", `{"data":"` + base64.StdEncoding.EncodeToString(make([]byte, block.Size)) + `"}`},
		{"negative addr", `{"addr":-1,"data":"` + base64.StdEncoding.EncodeToString(make([]byte, block.Size)) + `"}`},
		{"bad base64", `{"addr":1,"data":"!!!"}`},
		{"short data", `{"addr":1,"data":"` + base64.StdEncoding.EncodeToString(make([]byte, 8)) + `"}`},
	}
	for _, tc := range cases {
		_, err := ReadNDJSON(strings.NewReader(tc.line + "\n"))
		if err == nil {
			t.Fatalf("%s: decode succeeded, want error", tc.name)
		}
		if errors.Is(err, ErrTruncated) || errors.Is(err, ErrEmptyTrace) {
			t.Fatalf("%s: got %v, want a plain malformed-record error", tc.name, err)
		}
	}
}

func TestDecodeSniffsAllFormats(t *testing.T) {
	want := testEvents(10)

	var pcmt bytes.Buffer
	if err := Write(&pcmt, want); err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	if err := WriteNDJSON(&ndjson, want); err != nil {
		t.Fatal(err)
	}
	var pcmtGz bytes.Buffer
	gz := gzip.NewWriter(&pcmtGz)
	if _, err := gz.Write(pcmt.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}

	for name, raw := range map[string][]byte{
		"pcmt": pcmt.Bytes(), "ndjson": ndjson.Bytes(), "pcmt.gz": pcmtGz.Bytes(),
	} {
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("Decode(%s): %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Decode(%s): %d events, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Decode(%s): event %d mismatch", name, i)
			}
		}
	}

	// "PCMS" was a second binary container; it is no longer a format.
	if _, err := Decode(strings.NewReader("PCMS\x01\x01" + string(make([]byte, 64)) + "\x00")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Decode(PCMS header) = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	_, err := Decode(strings.NewReader("XYZW not a trace at all"))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Decode(garbage) = %v, want ErrBadMagic", err)
	}
	_, err = Decode(strings.NewReader(""))
	if !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("Decode(empty) = %v, want ErrEmptyTrace", err)
	}
}
