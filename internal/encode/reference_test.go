package encode

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"pcmcomp/internal/pcm"
)

// Reference oracles: the original byte-at-a-time encoder bodies, kept
// verbatim in spirit so the word-parallel implementations can be checked
// against them bit for bit — same encoded bytes, same selectors, same
// pulse counts.

func refMaskByte(mask uint32, j int) byte { return byte(mask >> (8 * uint(j))) }

func refCosetEncode(k int, buf, old []byte, sel []uint8) {
	word := 0
	for i := 0; i < len(buf); i += 4 {
		w := min(len(buf)-i, 4)
		best, bestFlips := 0, -1
		for m := 0; m < k; m++ {
			flips := 0
			for j := 0; j < w; j++ {
				flips += bits.OnesCount8((buf[i+j] ^ refMaskByte(cosetMasks[m], j)) ^ old[i+j])
			}
			if bestFlips < 0 || flips < bestFlips {
				best, bestFlips = m, flips
			}
		}
		if best != 0 {
			for j := 0; j < w; j++ {
				buf[i+j] ^= refMaskByte(cosetMasks[best], j)
			}
		}
		sel[word] = uint8(best)
		word++
	}
}

func refWireEncode(model pcm.EnergyModel, buf, old []byte, sel []uint8) {
	word := 0
	for i := 0; i < len(buf); i += 2 {
		n := min(len(buf)-i, 2)
		sets, resets := refPulses(old[i:i+n], buf[i:i+n])
		idEnergy := model.WriteEnergyPJ(sets, resets)
		var comp [2]byte
		for j := 0; j < n; j++ {
			comp[j] = ^buf[i+j]
		}
		sets, resets = refPulses(old[i:i+n], comp[:n])
		sel[word] = 0
		if model.WriteEnergyPJ(sets, resets) < idEnergy {
			copy(buf[i:i+n], comp[:n])
			sel[word] = 1
		}
		word++
	}
}

func refPulses(old, new []byte) (sets, resets int) {
	for i := range old {
		sets += bits.OnesCount8(^old[i] & new[i])
		resets += bits.OnesCount8(old[i] & ^new[i])
	}
	return sets, resets
}

func refFlips(a, b []byte) int {
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// checkAgainstReference runs every encoder and the pulse/flip counters on
// one (data, old) pair and fails on any difference from the oracles.
func checkAgainstReference(t *testing.T, data, old []byte) {
	t.Helper()
	s, r := Pulses(old, data)
	if rs, rr := refPulses(old, data); s != rs || r != rr {
		t.Fatalf("Pulses = (%d, %d), reference (%d, %d)", s, r, rs, rr)
	}
	if got, want := Flips(data, old), refFlips(data, old); got != want {
		t.Fatalf("Flips = %d, reference %d", got, want)
	}

	type oracle struct {
		enc Encoder
		ref func(buf, old []byte, sel []uint8)
	}
	var encoders []oracle
	// The symmetric model makes identity/complement energy ties common.
	for _, model := range []pcm.EnergyModel{pcm.DefaultEnergyModel(), {SETpJ: 1, RESETpJ: 1}} {
		encoders = append(encoders, oracle{NewWire(model), func(b, o []byte, s []uint8) { refWireEncode(model, b, o, s) }})
	}
	for _, k := range []int{2, 4, 8} {
		c, err := NewCoset(k)
		if err != nil {
			t.Fatal(err)
		}
		encoders = append(encoders, oracle{c, func(b, o []byte, s []uint8) { refCosetEncode(k, b, o, s) }})
	}
	for _, e := range encoders {
		words := Words(len(data), e.enc.WordBytes())
		got, want := append([]byte(nil), data...), append([]byte(nil), data...)
		gotSel, wantSel := make([]uint8, words), make([]uint8, words)
		e.enc.Encode(got, old, gotSel)
		e.ref(want, old, wantSel)
		if !bytes.Equal(got, want) || !bytes.Equal(gotSel, wantSel) {
			t.Fatalf("%s on %d bytes: encoded %x sel %v, reference %x sel %v",
				e.enc.Name(), len(data), got, gotSel, want, wantSel)
		}
		e.enc.Decode(got, gotSel)
		if !bytes.Equal(got, data) {
			t.Fatalf("%s on %d bytes: round trip mismatch", e.enc.Name(), len(data))
		}
	}
}

// TestEncodeMatchesReference sweeps every length of a line's window with
// random and near-complement data, so ties and the complementary-mask
// shortcut are exercised without the fuzzer.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 4000; trial++ {
		n := 1 + trial%64
		data, old := make([]byte, n), make([]byte, n)
		rng.Read(old)
		rng.Read(data)
		switch trial % 4 {
		case 1: // near-complement rewrite
			for i := range data {
				data[i] = ^old[i] ^ byte(1<<uint(rng.Intn(8)))&byte(rng.Intn(2)*0xff)
			}
		case 2: // few-bit update
			copy(data, old)
			data[rng.Intn(n)] ^= byte(1 << uint(rng.Intn(8)))
		case 3: // structured patterns that tie across masks
			for i := range data {
				data[i] = []byte{0x00, 0xff, 0xaa, 0x55, 0x0f}[rng.Intn(5)]
				old[i] = []byte{0x00, 0xff, 0xaa, 0x55, 0xf0}[rng.Intn(5)]
			}
		}
		checkAgainstReference(t, data, old)
	}
}

func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(make([]byte, 128))
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a}, 33))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x0f}, 25))
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, in []byte) {
		data, old := pairUp(in)
		if data == nil {
			return
		}
		checkAgainstReference(t, data, old)
	})
}
