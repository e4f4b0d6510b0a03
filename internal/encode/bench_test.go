package encode

import (
	"fmt"
	"math/rand"
	"testing"

	"pcmcomp/internal/pcm"
)

// benchPairs returns a fixed set of random (data, old) windows of n bytes;
// 37 bytes leaves a partial last word for both encoders' word sizes.
func benchPairs(n int) (data, old [][]byte) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		d, o := make([]byte, n), make([]byte, n)
		rng.Read(d)
		rng.Read(o)
		data, old = append(data, d), append(old, o)
	}
	return data, old
}

func benchEncoder(b *testing.B, enc Encoder, n int) {
	data, old := benchPairs(n)
	buf := make([]byte, n)
	sel := make([]uint8, Words(n, enc.WordBytes()))
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(data)
		copy(buf, data[j])
		enc.Encode(buf, old[j], sel)
	}
}

func BenchmarkCosetEncode(b *testing.B) {
	for _, k := range []int{4, 8} {
		c, err := NewCoset(k)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{64, 37} {
			b.Run(fmt.Sprintf("k=%d/%dB", k, n), func(b *testing.B) { benchEncoder(b, c, n) })
		}
	}
}

func BenchmarkWireEncode(b *testing.B) {
	w := NewWire(pcm.DefaultEnergyModel())
	for _, n := range []int{64, 37} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) { benchEncoder(b, w, n) })
	}
}
