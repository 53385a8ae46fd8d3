package deflate

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"sync"
	"testing"

	"mana/internal/inflate"
)

// The data shapes every differential test, the fuzz seeds, the speed gate and
// the benchmark share. runNoise and noiseFloats are the benchmark's:
// bench/workloads.go fatApp.fill (64 bytes of xorshift noise, then 64 of one
// byte) and the straggler app's noise floats (five-decimal values in [0, 1) as
// little-endian float64 bits) — the same generators internal/inflate tests
// with.

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
	b := make([]byte, n)
	s := uint64(0x2545f4914f6cdd1d)
	for i := 0; i+8 <= len(b); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(b[i:], math.Float64bits(float64(s%100000)/100000))
	}
	return b
}

// vaspShard is one rank's raw shard stream from a 64-rank VASP proxy job, the
// stream the store's flate codec compresses for every rank of vasp_coll: the
// magic and the gob header (about 570 bytes of type descriptors and small
// integers), the rank's VASPMini snapshot (1.4 KB, mostly full-mantissa
// floats, in which nearly every literal occurs) and its CC sequence table.
// Its block has about 260 literal/length and 14 distance symbols, with a
// steep histogram, where noiseFloats' small stream has few distinct
// literals. It is rank 5 of the first epoch that
//
//	ccrun -app vasp -ranks 64 -ppn 32 -scale 0.001 -ckpt-at 0.05 -codec none -store DIR
//
// seals, stored as it was written (internal/inflate's benchmarks read it
// too). The step a run captures at is host-timed, so another run's shard
// differs in its numbers, not in its shape.
func vaspShard(tb testing.TB) []byte {
	data, err := os.ReadFile("testdata/vasp_shard.raw")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

type shape struct {
	name string
	data []byte
}

// shapes returns the corpus at n bytes a shape; a test takes prefixes for the
// shorter lengths (the empty and the one-byte stream are lengths, not shapes).
func shapes(n int) []shape {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, n)
	rng.Read(random)
	text := bytes.Repeat([]byte("the collective clock drains every group to its target before a rank may park; "), n/64+1)[:n]
	skewed := make([]byte, n) // a steep histogram: the 15-bit cap decides code lengths
	for i := range skewed {
		skewed[i] = byte(bits.TrailingZeros32(^rng.Uint32()))
	}
	// Noise that repeats every 64 KiB: a block is 65 535 bytes, so every match
	// reaches back one byte further into the previous block than the last,
	// and some straddle the boundary.
	periodic := make([]byte, n)
	for i := range periodic {
		periodic[i] = random[i%(64<<10)]
	}
	// Noise with an eight-byte repeat every 96: the matcher finds some of them,
	// too few to keep the parse, so a block drops matches it has counted.
	sparse := bytes.Clone(random)
	for i := 96; i+8 <= n; i += 96 {
		copy(sparse[i:i+8], sparse[i-40:])
	}
	return []shape{
		{"zeros", make([]byte, n)},
		{"random", random},
		{"text", text},
		{"skewed", skewed},
		{"run_noise", runNoise(n)},
		{"noise_floats", noiseFloats(n)},
		{"periodic_64k", periodic},
		{"sparse_repeats", sparse},
	}
}

// reference is the oracle: compress/flate at BestSpeed, fed data in one
// Write.
func reference(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encode runs data through w, reset onto a fresh buffer, in Writes of at most
// split bytes (0: one Write).
func encode(tb testing.TB, w *Writer, data []byte, split int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w.Reset(&buf)
	if split <= 0 {
		split = len(data) + 1
	}
	for rest := data; len(rest) > 0; {
		n := min(split, len(rest))
		if m, err := w.Write(rest[:n]); m != n || err != nil {
			tb.Fatalf("Write of %d bytes: %d, %v", n, m, err)
		}
		rest = rest[n:]
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// canaryDigest is the XXH64 (seed 0, the store's identity hash) of what
// compress/flate writes at BestSpeed for canaryInput, taken with go1.24 — the
// toolchain this package was checked against.
const canaryDigest = 0x31cf8ab6d752608d

func canaryInput() []byte {
	data := runNoise(200_000)
	copy(data[50_000:], noiseFloats(50_000))
	copy(data[150_000:], bytes.Repeat([]byte("checkpoint "), 2000))
	return data
}

// xxh64 is the one-shot XXH64 at seed 0. internal/ckpt's is unexported and
// imports this package, so the canary carries its own; TestCanary holds it to
// the published vectors.
func xxh64(b []byte) uint64 {
	var p1, p2, p3, p4, p5 uint64 = 11400714785074694791, 14029467366897019727, 1609587929392839161, 9650029242287828579, 2870177450012600261
	round := func(acc, lane uint64) uint64 { return bits.RotateLeft64(acc+lane*p2, 31) * p1 }
	h := p5
	if n := len(b); n >= 32 {
		v := [4]uint64{p1 + p2, p2, 0, -p1}
		for ; len(b) >= 32; b = b[32:] {
			for i := range v {
				v[i] = round(v[i], binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		h = bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) + bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
		for _, lane := range v {
			h = (h^round(0, lane))*p1 + p4
		}
		h += uint64(n) - uint64(len(b))
	}
	h += uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64(h^round(0, binary.LittleEndian.Uint64(b)), 27)*p1 + p4
	}
	if len(b) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(b))*p1, 23)*p2 + p3
		b = b[4:]
	}
	for _, c := range b {
		h = bits.RotateLeft64(h^uint64(c)*p5, 11) * p1
	}
	h = (h ^ h>>33) * p2
	h = (h ^ h>>29) * p3
	return h ^ h>>32
}

// referenceChanged reports whether this toolchain's compress/flate no longer
// writes the stream it wrote when this package was ported from it. Then a
// difference from it is not an in-tree bug: this package's own bytes stay
// pinned, by TestCanary here and by TestStoredBytesGolden in
// internal/conformance.
var referenceChanged = sync.OnceValue(func() bool {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	fw.Write(canaryInput())
	fw.Close()
	return xxh64(buf.Bytes()) != canaryDigest
})

// check holds one encoding of data to its two promises: it is the
// reference's bytes, and both inflates turn it back into data.
func check(t *testing.T, label string, got, data []byte, want []byte) {
	t.Helper()
	r := inflate.NewReader(bytes.NewReader(got))
	back, err := io.ReadAll(r)
	r.Close()
	if err != nil || !bytes.Equal(back, data) {
		t.Errorf("%s: internal/inflate read back %d bytes, err %v; want the %d written", label, len(back), err, len(data))
	}
	back, err = io.ReadAll(flate.NewReader(bytes.NewReader(got)))
	if err != nil || !bytes.Equal(back, data) {
		t.Errorf("%s: compress/flate read back %d bytes, err %v; want the %d written", label, len(back), err, len(data))
	}
	if bytes.Equal(got, want) {
		return
	}
	if referenceChanged() {
		t.Logf("%s: reference encoder changed; in-tree output is pinned by TestStoredBytesGolden", label)
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Errorf("%s: %d bytes, compress/flate writes %d; first difference at byte %d", label, len(got), len(want), i)
}
