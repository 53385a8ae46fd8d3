package inflate

import (
	"bytes"
	"compress/flate"
	"io"
	"testing"
	"time"
)

// shardLevel is the level every stored stream the benchmark reads back was
// written at: internal/deflate has only BestSpeed.
const shardLevel = flate.BestSpeed

var benchShapes = []struct {
	name string
	gen  func(int) []byte
}{
	{"noise_floats", noiseFloats},
	{"run_noise", runNoise},
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
	const size = 4 << 20
	buf := make([]byte, 256<<10)
	for _, sh := range benchShapes {
		stream := deflate(b, sh.gen(size), shardLevel, 1)
		b.Run(sh.name+"/ours", func(b *testing.B) {
			b.SetBytes(size)
			r := NewReader(nil)
			defer r.Close()
			for i := 0; i < b.N; i++ {
				r.Reset(bytes.NewReader(stream))
				if n := drain(b, r, buf); n != size {
					b.Fatalf("decoded %d bytes, want %d", n, size)
				}
			}
		})
		b.Run(sh.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(size)
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

// BenchmarkInflateRatio is the speed gate (b.Fatalf below it): on both stream
// shapes the benchmark's restarts read, this decoder is at least 1.5x
// compress/flate's in the same process (best of 5 each). The reference reads
// as it did in the store: from a source that is not an io.ByteReader, so
// behind the bufio it adds itself. A benchmark so that `go test ./...` asserts
// nothing about host speed; CI runs it by name with -benchtime=1x, without
// -race (the detector charges per load; the ratio means nothing under it).
func BenchmarkInflateRatio(b *testing.B) {
	const size = 4 << 20
	buf := make([]byte, 256<<10)
	timed := func(r io.Reader) time.Duration {
		t0 := time.Now()
		if n := drain(b, r, buf); n != size {
			b.Fatalf("decoded %d bytes, want %d", n, size)
		}
		return time.Since(t0)
	}
	for _, sh := range benchShapes {
		stream := deflate(b, sh.gen(size), shardLevel, 1)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ours, ref := time.Duration(1<<62), time.Duration(1<<62)
				for j := 0; j < 5; j++ { // alternating, so a noisy stretch costs both sides
					ours = min(ours, timed(NewReader(bytes.NewReader(stream))))
					ref = min(ref, timed(flate.NewReader(io.MultiReader(bytes.NewReader(stream)))))
				}
				ratio := ref.Seconds() / ours.Seconds()
				if ratio < 1.5 {
					b.Fatalf("in-tree inflate is %.2fx compress/flate, want >= 1.5x", ratio)
				}
				b.ReportMetric(size/1e6/ours.Seconds(), "MB/s")
				b.ReportMetric(size/1e6/ref.Seconds(), "stdlib-MB/s")
				b.ReportMetric(ratio, "x-stdlib")
			}
		})
	}
}
