package inflate

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The data shapes every differential test, the fuzz seeds and the speed gate
// share. The last two are the benchmark's: bench/workloads.go fatApp.fill
// (64 bytes of xorshift noise, then 64 of one byte) and the straggler app's
// noise floats (five-decimal values in [0, 1) as little-endian float64 bits).
// The speed tests add the in-place straggler's periodic floats.

func runNoise(n int) []byte {
	b := make([]byte, n)
	s := uint64(0x9e3779b97f4a7c15)
	for off := 0; off < n; off += 128 {
		noise := b[off:min(off+64, n)]
		for i := 0; i+8 <= len(noise); i += 8 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			binary.LittleEndian.PutUint64(noise[i:], s)
		}
		if off+64 < n {
			run := b[off+64 : min(off+128, n)]
			for i := range run {
				run[i] = byte(s)
			}
		}
	}
	return b
}

func noiseFloats(n int) []byte {
	b := make([]byte, n&^7)
	s := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < len(b); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(b[i:], math.Float64bits(float64(s%100000)/100000))
	}
	return b
}

// periodicFloats is the in-place straggler's State (internal/apps
// straggler.go initState): rank + (i mod 64)/64 as little-endian float64
// bits, for rank 1. Its 512-byte period deflates to 258-byte matches at
// distance 512, the one shape whose decode is long copies.
func periodicFloats(n int) []byte {
	b := make([]byte, n&^7)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], math.Float64bits(1+float64(i/8%64)/64))
	}
	return b
}

type shape struct {
	name string
	data []byte
}

// shapes returns the corpus at roughly n bytes a shape (the two fixed tiny
// ones aside).
func shapes(n int) []shape {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, n)
	rng.Read(random)
	text := bytes.Repeat([]byte("the collective clock drains every group to its target before a rank may park; "), n/64+1)[:n]
	skewed := make([]byte, n) // a steep histogram: codes from 1 to 15 bits
	for i := range skewed {
		skewed[i] = byte(bits16(rng.Uint32()))
	}
	return []shape{
		{"empty", nil},
		{"one_byte", []byte{0x5a}},
		{"zeros", make([]byte, n)},
		{"random", random},
		{"text", text},
		{"skewed", skewed},
		{"run_noise", runNoise(n)},
		{"noise_floats", noiseFloats(n)},
	}
}

// bits16 maps a uniform word to a geometric one: value k with probability
// 2^-(k+1), so a Huffman code over it uses every length up to the limit.
func bits16(u uint32) int {
	k := 0
	for u&1 == 1 && k < 40 {
		u >>= 1
		k++
	}
	return k
}

var levels = []int{flate.HuffmanOnly, flate.NoCompression, 1, 2, 6, 9}

// deflate compresses data at level with the reference encoder, in `writes`
// pieces with a Flush after each (every Flush ends a block and adds an empty
// stored one).
func deflate(tb testing.TB, data []byte, level, writes int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if _, err := fw.Write(data[len(data)*i/writes : len(data)*(i+1)/writes]); err != nil {
			tb.Fatal(err)
		}
		if writes > 1 {
			if err := fw.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
