package montecarlo

import (
	"testing"

	"pcmcomp/internal/block"
	"pcmcomp/internal/ecc"
	"pcmcomp/internal/ecc/aegis"
	"pcmcomp/internal/ecc/ecp"
	"pcmcomp/internal/ecc/safer"
	"pcmcomp/internal/ecc/secded"
)

// FuzzSurvivesBoundedMatchesSurvives pins the Runner's placement scan to
// the generic one on arbitrary fault bitmaps, independently of the
// injection stream: for every count-bounded scheme and any window of 1..64
// bytes, the sliding-sum scan with its count screens must reach the same
// verdict as Survives' Correctable call at every origin.
func FuzzSurvivesBoundedMatchesSurvives(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint8(31))
	f.Add(^uint64(0), uint64(1), uint64(0), uint64(1<<63), uint64(0xff), uint64(0), uint64(0), uint64(3), uint8(59))
	f.Add(uint64(0x0101010101010101), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(1<<63), uint8(0))
	f.Add(uint64(0x5555555555555555), uint64(0x5555555555555555), uint64(0x5555555555555555), uint64(0x5555555555555555),
		uint64(0x5555555555555555), uint64(0x5555555555555555), uint64(0x5555555555555555), uint64(0x5555555555555555), uint8(63))
	schemes := []ecc.Scheme{ecp.New(6), safer.New(5), aegis.MustNew(17, 31), secded.Scheme{}}
	ru := NewRunner()
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4, w5, w6, w7 uint64, windowRaw uint8) {
		window := 1 + int(windowRaw)%block.Size
		ru.faults.SetWords([block.Bits / 64]uint64{w0, w1, w2, w3, w4, w5, w6, w7})
		for _, scheme := range schemes {
			always, never := scheme.CorrectableBounds()
			want := Survives(scheme, &ru.faults, window)
			if got := ru.survivesBounded(scheme, window, always, never); got != want {
				t.Fatalf("%s, %d faults, %dB window: survivesBounded %v, Survives %v",
					scheme.Name(), ru.faults.Count(), window, got, want)
			}
		}
	})
}
