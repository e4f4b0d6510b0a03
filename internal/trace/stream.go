package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// Streaming access to traces: lifetime runs replay traces from memory, but
// generation and inspection of long traces should not require holding every
// event. StreamWriter emits events incrementally; StreamReader yields them
// one at a time. Both transparently handle gzip when the path/flag asks
// for it (long traces compress extremely well — most write-backs share
// value structure).

// StreamWriter writes a trace incrementally. Close finalizes the stream;
// the event count is patched into a trailing footer rather than the
// header, so the writer never needs to know the count in advance.
//
// Stream format: magic "PCMS" | uvarint version | events... | 0xFF marker.
// (Events are uvarint address+1, so address encoding never starts with
// 0xFF's meaning of end-of-stream: uvarint bytes of value>=1 are distinct
// from the marker only because addresses are encoded as addr+1 and the
// marker byte is only read at event boundaries.)
type StreamWriter struct {
	bw     *bufio.Writer
	gz     *gzip.Writer
	count  int
	closed bool
}

const (
	streamMagic   = "PCMS"
	streamVersion = 1
	endMarker     = 0x00 // a zero "address+1" cannot occur
)

// NewStreamWriter starts a stream on w; gzipped selects compression.
func NewStreamWriter(w io.Writer, gzipped bool) (*StreamWriter, error) {
	sw := &StreamWriter{}
	var sink io.Writer = w
	if gzipped {
		sw.gz = gzip.NewWriter(w)
		sink = sw.gz
	}
	sw.bw = bufio.NewWriter(sink)
	if _, err := sw.bw.WriteString(streamMagic); err != nil {
		return nil, fmt.Errorf("trace: write stream magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], streamVersion)
	if _, err := sw.bw.Write(buf[:n]); err != nil {
		return nil, fmt.Errorf("trace: write stream version: %w", err)
	}
	return sw, nil
}

// Append writes one event.
func (sw *StreamWriter) Append(e Event) error {
	if sw.closed {
		return fmt.Errorf("trace: append to closed stream")
	}
	if e.Addr < 0 {
		return fmt.Errorf("trace: negative address %d", e.Addr)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(e.Addr)+1)
	if _, err := sw.bw.Write(buf[:n]); err != nil {
		return err
	}
	if _, err := sw.bw.Write(e.Data[:]); err != nil {
		return err
	}
	sw.count++
	return nil
}

// Count returns the number of events appended so far.
func (sw *StreamWriter) Count() int { return sw.count }

// Close finalizes the stream (end marker + flush + gzip trailer).
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if err := sw.bw.WriteByte(endMarker); err != nil {
		return err
	}
	if err := sw.bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush stream: %w", err)
	}
	if sw.gz != nil {
		if err := sw.gz.Close(); err != nil {
			return fmt.Errorf("trace: close gzip: %w", err)
		}
	}
	return nil
}

// StreamReader iterates a stream produced by StreamWriter.
type StreamReader struct {
	br *bufio.Reader
	gz *gzip.Reader
}

// NewStreamReader opens a stream; gzipped must match the writer.
func NewStreamReader(r io.Reader, gzipped bool) (*StreamReader, error) {
	sr := &StreamReader{}
	var src io.Reader = r
	if gzipped {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("trace: open gzip: %w", err)
		}
		sr.gz = gz
		src = gz
	}
	sr.br = bufio.NewReader(src)
	var magic [len(streamMagic)]byte
	if _, err := io.ReadFull(sr.br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: read stream magic: %w", err)
	}
	if string(magic[:]) != streamMagic {
		return nil, ErrBadMagic
	}
	v, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return nil, fmt.Errorf("trace: read stream version: %w", err)
	}
	if v != streamVersion {
		return nil, fmt.Errorf("trace: unsupported stream version %d", v)
	}
	return sr, nil
}

// Next returns the next event; io.EOF signals a clean end of stream.
func (sr *StreamReader) Next() (Event, error) {
	var e Event
	addr, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return e, fmt.Errorf("trace: read event address: %w", err)
	}
	if addr == endMarker {
		return e, io.EOF
	}
	if addr-1 > math.MaxInt {
		return e, fmt.Errorf("trace: event address %d overflows int", addr-1)
	}
	e.Addr = int(addr - 1)
	if _, err := io.ReadFull(sr.br, e.Data[:]); err != nil {
		return e, fmt.Errorf("trace: read event data: %w", err)
	}
	return e, nil
}

// Close releases the gzip reader, if any.
func (sr *StreamReader) Close() error {
	if sr.gz != nil {
		return sr.gz.Close()
	}
	return nil
}

// IsGzipPath reports whether a trace path requests gzip by suffix.
func IsGzipPath(path string) bool {
	return strings.HasSuffix(path, ".gz") || strings.HasSuffix(path, ".pcmtz")
}
