package core

import (
	"fmt"

	"pcmcomp/internal/block"
	"pcmcomp/internal/compress"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/encode"
	"pcmcomp/internal/pcm"
	"pcmcomp/internal/wear"
)

// Outcome reports what happened to one logical write-back.
type Outcome struct {
	// Stored is false when the line was dead and the write was dropped
	// (an uncorrectable error).
	Stored bool
	// Compressed reports whether the data was stored compressed.
	Compressed bool
	// Size is the stored payload size in bytes.
	Size int
	// WindowStart is the window origin byte (wraps modulo the line size).
	WindowStart int
	// FlipsNeeded / FlipsWritten / StuckFlips aggregate the differential
	// write work (see pcm.WriteResult).
	FlipsNeeded, FlipsWritten, StuckFlips int
	// NewFaults is the number of cells that wore out during this write.
	NewFaults int
	// Died reports that this write killed the line (no placement found).
	Died bool
	// Resurrected reports that a previously dead line came back (Comp+WF).
	Resurrected bool
}

// Write stores one LLC write-back at the logical line address. It drives
// the full §III mechanism: wear-leveling bookkeeping, the compression
// decision (Fig 8), window placement and sliding (Fig 4), the differential
// write, and death/resurrection accounting.
func (c *Controller) Write(addr int, data *block.Block) Outcome {
	var out Outcome
	c.write(addr, data, nil, &out)
	return out
}

// Compress returns the compression result Write would compute for data,
// and false when the controller stores every write raw (compression off).
// The result's Data aliases the controller's scratch buffer and is only
// valid until the next Compress or Write; copy it to retain.
func (c *Controller) Compress(data *block.Block) (compress.Result, bool) {
	if !c.cfg.UseCompression {
		return compress.Result{}, false
	}
	return c.comp.Compress(data), true
}

// Codec names the controller's compression configuration, and is false
// when the controller stores every write raw. Controllers with equal
// codec names compress every block identically, so they may share
// memoized Compress results.
func (c *Controller) Codec() (string, bool) {
	if !c.cfg.UseCompression {
		return "", false
	}
	name := fmt.Sprintf("bdi=%t,fpc=%t", !c.cfg.DisableBDI, !c.cfg.DisableFPC)
	if c.cfg.FVC != nil {
		name += "," + c.cfg.FVC.String()
	}
	return name, true
}

// WriteCompressed is Write with the demand write's compression supplied by
// the caller: res must be what Compress returned for data (its Data copied
// out of the scratch buffer). Compression is a pure function of the block
// and the codec configuration, so replaying a memoized result is
// bit-identical to Write; the Fig 8 heuristic still runs on res's size,
// and Start-Gap copies still recompress the data they move. A controller
// that does not compress ignores res.
func (c *Controller) WriteCompressed(addr int, data *block.Block, res compress.Result) Outcome {
	var out Outcome
	c.write(addr, data, &res, &out)
	return out
}

// write is the body of Write and WriteCompressed; pre, when non-nil, is the
// demand write's precomputed compression. It fills out, which the caller
// passes zeroed: the result travels by pointer so that no frame of the hot
// path copies it.
func (c *Controller) write(addr int, data *block.Block, pre *compress.Result, out *Outcome) {
	bank, lrow := c.locate(addr)
	bs := &c.banks[bank]

	// Intra-line wear-leveling: one counter per bank; saturation rotates
	// the bank's window origin (§III-A.2).
	if c.cfg.UseIntraWL {
		if bs.rot.OnWrite() {
			c.stats.Rotations++
		}
	}

	// Inter-line wear-leveling: Start-Gap may move one line now. The copy
	// itself is a write that wears cells and re-runs placement — this is
	// also where resurrecting systems re-check dead lines (§III-A.3).
	// Without Start-Gap the mapping stays identity (the gap never moves).
	if c.cfg.UseStartGap {
		if mv, moved := bs.sg.OnWrite(); moved {
			c.stats.GapMovements++
			c.moveLine(bank, mv)
		}
	}

	row := bs.sg.Map(lrow)
	c.writePhysical(bank, row, data, pre, false, out)
}

// moveLine relocates the content of physical row mv.From into mv.To as part
// of a Start-Gap movement. The destination was the gap (or, in Comp+WF, a
// line whose dead status is now re-evaluated with the incoming data).
func (c *Controller) moveLine(bank int, mv wear.Movement) {
	bs := &c.banks[bank]
	from := &bs.meta[mv.From]
	if !from.written() {
		// Nothing resident; the gap simply moves. Dead flags track the
		// physical lines' worn cells and stay put.
		bs.meta[mv.To].vacate()
		from.vacate()
		return
	}
	logical, err := c.comp.Decompress(from.enc, from.payload)
	if err != nil {
		// Metadata corruption cannot happen with invariant payloads;
		// treat defensively as a dropped line.
		bs.meta[mv.To].vacate()
		from.vacate()
		c.stats.UncorrectableErrors++
		return
	}

	// Preserve the logical line's SC/size-tracking state across the move.
	sc, prev := from.sc, from.prevCompSize
	from.vacate() // From becomes the gap (physical state stays)

	to := &bs.meta[mv.To]
	to.sc, to.prevCompSize = sc, prev
	var out Outcome
	c.writePhysical(bank, mv.To, &logical, nil, true, &out)
}

// writePhysical stores data into the given physical row, applying the
// compression decision and window placement. pre, when non-nil, is data's
// precomputed compression (see WriteCompressed). isMove marks Start-Gap
// copies: in Comp+WF these are the only writes allowed to retry a dead line.
// It fills out, which the caller passes zeroed.
func (c *Controller) writePhysical(bank, row int, data *block.Block, pre *compress.Result, isMove bool, out *Outcome) {
	bs := &c.banks[bank]
	meta := &bs.meta[row]
	c.stats.Writes++

	if meta.dead && !(c.cfg.Resurrect && isMove) {
		c.stats.UncorrectableErrors++
		c.stats.DroppedWrites++
		return
	}
	wasDead := meta.dead

	// --- Compression decision (Fig 8) ---
	payload, enc := c.chooseRepresentation(meta, data, pre)
	size := len(payload)

	line := c.mem.Line(c.physAddr(bank, row))
	out.Size = size
	out.Compressed = enc.IsCompressed()

	// --- Placement and write, with re-placement if cells die mid-write ---
	for attempt := 0; attempt < c.cfg.MaxPlaceRetries; attempt++ {
		origin, ok := c.place(bs, meta, line.Faults(), size)
		if !ok {
			break
		}
		var res pcm.WriteResult
		c.writeWindow(line, payload, origin, &res)
		out.FlipsNeeded += res.FlipsNeeded
		out.FlipsWritten += res.FlipsWritten
		out.StuckFlips += res.StuckFlips
		out.NewFaults += res.NewFaults
		c.stats.BitFlips += uint64(res.FlipsWritten)
		c.stats.SetPulses += uint64(res.Sets)
		c.stats.ResetPulses += uint64(res.Resets)
		c.stats.NewFaults += uint64(res.NewFaults)

		// Write-verify: if the cells that died during this write leave the
		// window uncorrectable, the data is not safely stored; try again
		// elsewhere in the line. A write that killed no cell needs no check:
		// place accepted this origin against the same fault set, or against
		// an empty one, which every scheme corrects.
		if res.NewFaults == 0 || c.cfg.Scheme.Correctable(line.Faults(), origin, size) {
			if meta.written() && int(meta.start) != origin {
				c.stats.StartPointerUpdates++
			}
			if meta.written() && meta.enc != enc {
				c.stats.EncodingUpdates++
			}
			meta.start = uint8(origin)
			meta.enc = enc
			meta.size = uint8(size)
			meta.payload = append(meta.payload[:0], payload...)
			if wasDead {
				meta.dead = false
				c.deadCount--
				c.stats.Resurrections++
				out.Resurrected = true
			}
			out.Stored = true
			out.WindowStart = origin
			if out.Compressed {
				c.stats.CompressedWrites++
			}
			return
		}
	}

	// No placement: the line dies (Fig 4, "worn out").
	c.stats.UncorrectableErrors++
	c.stats.DroppedWrites++
	if !meta.dead {
		meta.dead = true
		c.deadCount++
		c.stats.DeathFaultCells.Add(float64(line.Faults().Count()))
		out.Died = true
	}
}

// chooseRepresentation applies the Fig 8 flow: small compressed sizes are
// always stored compressed; size-unstable lines (saturated SC) are stored
// raw to avoid the extra bit flips compression entropy would cause. pre,
// when non-nil, stands in for compressing data.
func (c *Controller) chooseRepresentation(meta *lineMeta, data *block.Block, pre *compress.Result) ([]byte, compress.Encoding) {
	if !c.cfg.UseCompression {
		return data[:], compress.EncUncompressed
	}
	// The Compressor's scratch-backed result is only valid until its next
	// Compress call; writePhysical copies it into meta.payload before any
	// other write can run, so no heap copy is needed here.
	var res compress.Result
	if pre != nil {
		res = *pre
	} else {
		res = c.comp.Compress(data)
	}
	newSize := res.Size()

	if !c.cfg.UseSCHeuristic {
		meta.prevCompSize = uint8(newSize)
		return res.Data, res.Encoding
	}
	if newSize < c.cfg.Threshold1 { // step 1: highly compressible
		meta.prevCompSize = uint8(newSize)
		return res.Data, res.Encoding
	}
	// Track size stability on every write: the LLC message channel
	// (§III-B) hands the controller the previous compressed size and SC
	// regardless of how the line is currently stored, so a line that
	// saturated can earn its way back to compression once its sizes
	// stabilize.
	saturated := meta.sc == 3
	delta := newSize - int(meta.prevCompSize)
	if delta < 0 {
		delta = -delta
	}
	if meta.written() || meta.prevCompSize != 0 {
		if delta < c.cfg.Threshold2 {
			if meta.sc > 0 {
				meta.sc--
			}
		} else if meta.sc < 3 {
			meta.sc++
		}
	}
	meta.prevCompSize = uint8(newSize)
	if saturated { // step 2: size-unstable line, write raw
		c.stats.HeuristicRawWrites++
		return data[:], compress.EncUncompressed
	}
	return res.Data, res.Encoding
}

// place finds a window origin for a payload of the given size (Fig 4).
//
// Baseline and raw writes need the full line (origin 0). For compressed
// writes the preference order embodies each system's policy:
//
//   - Comp keeps the line's current start pointer (initially the least
//     significant byte) and only slides — without wrapping — when faults
//     make the current window uncorrectable or the size no longer fits.
//   - Comp+W / Comp+WF prefer the bank's rotation offset and may wrap the
//     window around the line end, sweeping wear across all cells.
//
// It returns the first origin whose window the ECC scheme can correct.
func (c *Controller) place(bs *bankState, meta *lineMeta, faults *ecc.FaultSet, size int) (int, bool) {
	if size >= block.Size {
		// Raw write: the window is the whole line.
		if c.cfg.Scheme.Correctable(faults, 0, block.Size) {
			return 0, true
		}
		return 0, false
	}

	// Fast path: a fault-free line accepts the preferred origin directly.
	noFaults := faults.Count() == 0

	if c.cfg.UseIntraWL {
		preferred := bs.rot.Offset()
		if noFaults || c.cfg.Scheme.Correctable(faults, preferred, size) {
			return preferred, true
		}
		for i := 1; i < block.Size; i++ {
			origin := (preferred + i) % block.Size
			if c.cfg.Scheme.Correctable(faults, origin, size) {
				return origin, true
			}
		}
		return 0, false
	}

	// Comp: sticky start pointer, contiguous (non-wrapping) windows only.
	preferred := int(meta.start)
	if preferred+size <= block.Size && (noFaults || c.cfg.Scheme.Correctable(faults, preferred, size)) {
		return preferred, true
	}
	for origin := 0; origin+size <= block.Size; origin++ {
		if origin == preferred {
			continue
		}
		if noFaults || c.cfg.Scheme.Correctable(faults, origin, size) {
			return origin, true
		}
	}
	return 0, false
}

// writeWindow overlays the payload onto the line's current physical content
// at the (possibly wrapping) window starting at origin, and performs the
// differential write of the affected byte range(s). With UseFNW set, the
// payload or its complement — whichever flips fewer cells — is written, and
// the choice is modeled as a per-window flip bit. A configured Encoder then
// transforms the window word-by-word against the current cell content (the
// per-word selectors model auxiliary metadata, like FNW's flip bit), so the
// cells receive the cheaper encoded image while reads keep returning the
// logical payload. Both stages work on the window in logical order: the
// cells' content is gathered from the window's head and wrapped tail into
// one contiguous buffer, and the result is scattered back the same way.
// The write's tallies are added into res.
func (c *Controller) writeWindow(line *pcm.Line, payload []byte, origin int, res *pcm.WriteResult) {
	size := len(payload)
	head := min(size, block.Size-origin)
	tail := size - head

	if c.cfg.UseFNW || c.cfg.Encoder != nil {
		win, old := c.win[:size], c.winOld[:size]
		copy(win, payload)
		cur := line.Data()
		copy(old, cur[origin:])
		copy(old[head:], cur[:tail])

		if c.cfg.UseFNW && encode.Flips(old, win)*2 > size*8 {
			for i := range win {
				win[i] = ^win[i]
			}
			c.stats.FNWInversions++
		}

		if enc := c.cfg.Encoder; enc != nil {
			sets0, resets0 := encode.Pulses(old, win)
			enc.Encode(win, old, c.encSel[:encode.Words(size, enc.WordBytes())])
			sets1, resets1 := encode.Pulses(old, win)
			c.stats.EncodedWrites++
			c.stats.EncoderFlipsSaved += int64(sets0+resets0) - int64(sets1+resets1)
			c.stats.EncoderEnergySavedPJ += c.energy.WriteEnergyPJ(sets0, resets0) -
				c.energy.WriteEnergyPJ(sets1, resets1)
		}
		payload = win
	}

	target := *line.Data()
	copy(target[origin:], payload[:head])
	copy(target[:tail], payload[head:])
	line.WriteWindow(&target, origin, head, res)
	if tail > 0 {
		line.WriteWindow(&target, 0, tail, res)
	}
}
