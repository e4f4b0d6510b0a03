package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
)

// Decode reads a complete trace from r in any supported encoding, sniffed
// from the leading bytes:
//
//   - "PCMT": the sized binary format (Write/Read)
//   - gzip magic: decompressed, then sniffed again (one level — gzip of
//     gzip is rejected as bad magic by the inner pass)
//   - anything starting with '{': NDJSON, one event per line
//
// It is the single ingestion point for uploaded traces, so every producer
// — cmd/tracegen binaries and their gzip-wrapped .gz form,
// script-generated NDJSON — lands in the same []Event. Unrecognized leading bytes return
// ErrBadMagic; an input with no events returns ErrEmptyTrace.
func Decode(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	head, err := br.Peek(4)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniff format: %w", err)
	}
	if len(head) == 0 {
		return nil, ErrEmptyTrace
	}
	switch {
	case len(head) >= 2 && head[0] == 0x1f && head[1] == 0x8b:
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: open gzip: %w", err)
		}
		defer gz.Close()
		return decodeUncompressed(bufio.NewReaderSize(gz, 64<<10))
	default:
		return decodeUncompressed(br)
	}
}

// decodeUncompressed dispatches on the magic of an uncompressed stream.
func decodeUncompressed(br *bufio.Reader) ([]Event, error) {
	head, err := br.Peek(4)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniff format: %w", err)
	}
	if len(head) == 0 {
		return nil, ErrEmptyTrace
	}
	switch {
	case string(head) == magic:
		events, err := Read(br)
		if err != nil {
			return nil, err
		}
		if len(events) == 0 {
			return nil, ErrEmptyTrace
		}
		return events, nil
	case head[0] == '{':
		return ReadNDJSON(br)
	default:
		return nil, ErrBadMagic
	}
}
