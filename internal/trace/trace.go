// Package trace defines the LLC write-back trace that connects the
// front-end (the cache simulator or the direct workload generators) to the
// lifetime simulator, mirroring the paper's methodology of collecting
// main-memory access traces in gem5 and replaying them in a lightweight
// PCM lifetime simulator (§IV).
//
// A trace is a sequence of events, each a 64-byte write-back to a logical
// line address. The binary on-disk format is:
//
//	magic "PCMT" | uvarint version | uvarint event count |
//	events: uvarint address | 64 data bytes
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pcmcomp/internal/block"
)

// Event is one LLC write-back.
type Event struct {
	// Addr is the logical line address.
	Addr int
	// Data is the 64-byte write-back payload.
	Data block.Block
}

const (
	magic   = "PCMT"
	version = 1
)

// ErrBadMagic reports a stream that is not a PCM trace.
var ErrBadMagic = errors.New("trace: bad magic (not a PCM write-back trace)")

// Write encodes events to w in the binary trace format.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("trace: write magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(version); err != nil {
		return fmt.Errorf("trace: write version: %w", err)
	}
	if err := writeUvarint(uint64(len(events))); err != nil {
		return fmt.Errorf("trace: write count: %w", err)
	}
	for i := range events {
		if events[i].Addr < 0 {
			return fmt.Errorf("trace: event %d has negative address %d", i, events[i].Addr)
		}
		if err := writeUvarint(uint64(events[i].Addr)); err != nil {
			return fmt.Errorf("trace: write event %d address: %w", i, err)
		}
		if _, err := bw.Write(events[i].Data[:]); err != nil {
			return fmt.Errorf("trace: write event %d data: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Read decodes a full trace from r.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var m [len(magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, ErrBadMagic
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read version: %w", err)
	}
	if v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read count: %w", err)
	}
	const maxEvents = 1 << 30 // sanity bound against corrupt headers
	if count > maxEvents {
		return nil, fmt.Errorf("trace: implausible event count %d", count)
	}
	// The header's count is untrusted until the events arrive: reserve a
	// bounded amount and let append grow the slice as they do.
	events := make([]Event, 0, min(count, 1<<12))
	for i := uint64(0); i < count; i++ {
		addr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: read event %d address: %w", i, err)
		}
		if addr > math.MaxInt {
			return nil, fmt.Errorf("trace: event %d address %d overflows int", i, addr)
		}
		var e Event
		e.Addr = int(addr)
		if _, err := io.ReadFull(br, e.Data[:]); err != nil {
			return nil, fmt.Errorf("trace: read event %d data: %w", i, err)
		}
		events = append(events, e)
	}
	return events, nil
}

// Stats summarizes a trace.
type Stats struct {
	Events        int
	DistinctLines int
	MaxAddr       int
}

// Summarize scans a trace and reports its footprint.
func Summarize(events []Event) Stats {
	seen := make(map[int]struct{}, len(events)/4+1)
	s := Stats{Events: len(events)}
	for i := range events {
		if events[i].Addr > s.MaxAddr {
			s.MaxAddr = events[i].Addr
		}
		seen[events[i].Addr] = struct{}{}
	}
	s.DistinctLines = len(seen)
	return s
}
