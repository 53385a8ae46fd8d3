package inflate

import (
	"bytes"
	"compress/flate"
	"io"
	"os"
	"testing"
	"time"
)

// shardLevel is the level every stored stream the benchmark reads back was
// written at: internal/deflate has only BestSpeed.
const shardLevel = flate.BestSpeed

// The streams the benchmark's restarts read: its three state shapes at 4 MiB
// (shift_cdc's noise floats, fat_full's run/noise, inplace_delta's periodic
// floats, which are 258-byte matches and so time the long-copy path), and one
// rank's shard of vasp_coll (2 KB), where reading the dynamic header and
// building its three decoding tables is a fixed cost of every stream.
type benchStream struct {
	name string
	data []byte
	gate float64 // BenchmarkInflateRatio: at least this many times compress/flate
}

func benchStreams(tb testing.TB) []benchStream {
	return []benchStream{
		{"noise_floats", noiseFloats(4 << 20), 1.5},
		{"run_noise", runNoise(4 << 20), 1.5},
		{"vasp_shard", vaspShard(tb), 1.5},
		{"periodic_floats", periodicFloats(4 << 20), 1.5},
	}
}

// vaspShard is internal/deflate's vasp_coll shard stream: see vaspShard there.
func vaspShard(tb testing.TB) []byte {
	data, err := os.ReadFile("../deflate/testdata/vasp_shard.raw")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// drain decodes stream through r into a reused buffer the way the store's
// payload reads do (large destination) and returns the byte count.
func drain(tb testing.TB, r io.Reader, buf []byte) int {
	total := 0
	for {
		n, err := r.Read(buf)
		total += n
		if err == io.EOF {
			return total
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkInflate(b *testing.B) {
	buf := make([]byte, 256<<10)
	for _, st := range benchStreams(b) {
		size := len(st.data)
		stream := deflate(b, st.data, shardLevel, 1)
		b.Run(st.name+"/ours", func(b *testing.B) {
			b.SetBytes(int64(size))
			r := NewReader(nil)
			defer r.Close()
			for i := 0; i < b.N; i++ {
				r.Reset(bytes.NewReader(stream))
				if n := drain(b, r, buf); n != size {
					b.Fatalf("decoded %d bytes, want %d", n, size)
				}
			}
		})
		b.Run(st.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				// What flateCodec.NewReader did per shard: a fresh decoder
				// over a source that is not an io.ByteReader.
				r := flate.NewReader(io.MultiReader(bytes.NewReader(stream)))
				if n := drain(b, r, buf); n != size {
					b.Fatalf("decoded %d bytes, want %d", n, size)
				}
			}
		})
	}
}

// BenchmarkInflateRatio is the speed gate (b.Fatalf below it): on each stream
// this decoder, reused through Reset as the store's pool reuses it, is at
// least gate times compress/flate's in the same process (best of 5 each). The
// reference reads as it did in the store: a fresh decoder per stream, from a
// source that is not an io.ByteReader, so behind the bufio it adds itself. A
// small stream is timed over many. A benchmark so that `go test ./...`
// asserts nothing about host speed; CI runs it by name with -benchtime=1x,
// without -race (the detector charges per load; the ratio means nothing under
// it).
func BenchmarkInflateRatio(b *testing.B) {
	buf := make([]byte, 256<<10)
	ours := NewReader(nil)
	defer ours.Close()
	for _, st := range benchStreams(b) {
		size := len(st.data)
		stream := deflate(b, st.data, shardLevel, 1)
		reps := max(1, 1<<20/size)
		timed := func(open func() io.Reader) time.Duration {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if n := drain(b, open(), buf); n != size {
					b.Fatalf("decoded %d bytes, want %d", n, size)
				}
			}
			return time.Since(t0) / time.Duration(reps)
		}
		mbps := func(d time.Duration) float64 { return float64(size) / 1e6 / d.Seconds() }
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bestOurs, bestRef := time.Duration(1<<62), time.Duration(1<<62)
				for j := 0; j < 5; j++ { // alternating, so a noisy stretch costs both sides
					bestOurs = min(bestOurs, timed(func() io.Reader { ours.Reset(bytes.NewReader(stream)); return ours }))
					bestRef = min(bestRef, timed(func() io.Reader { return flate.NewReader(io.MultiReader(bytes.NewReader(stream))) }))
				}
				ratio := bestRef.Seconds() / bestOurs.Seconds()
				if ratio < st.gate {
					b.Fatalf("in-tree inflate is %.2fx compress/flate, want >= %.1fx", ratio, st.gate)
				}
				b.ReportMetric(mbps(bestOurs), "MB/s")
				b.ReportMetric(mbps(bestRef), "stdlib-MB/s")
				b.ReportMetric(ratio, "x-stdlib")
				b.ReportMetric(float64(bestOurs.Nanoseconds())/1e3, "us/stream")
			}
		})
	}
}
