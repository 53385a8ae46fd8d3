package inflate

import (
	"bytes"
	"compress/flate"
	"io"
	"runtime/debug"
	"testing"
	"time"
)

// shardLevel is internal/ckpt's shardCompression: the level every stored
// stream the benchmark reads back was written at.
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

func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestInflateRatio is the speed gate: on both stream shapes the benchmark's
// restarts read, this decoder is at least 1.5x compress/flate's in the same
// process (best of 5 each). The reference reads as it did in the store: from a
// source that is not an io.ByteReader, so behind the bufio it adds itself.
func TestInflateRatio(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector charges per load; the ratio means nothing under it")
	}
	const size = 4 << 20
	buf := make([]byte, 256<<10)
	timed := func(r io.Reader) time.Duration {
		t0 := time.Now()
		if n := drain(t, r, buf); n != size {
			t.Fatalf("decoded %d bytes, want %d", n, size)
		}
		return time.Since(t0)
	}
	for _, sh := range benchShapes {
		stream := deflate(t, sh.gen(size), shardLevel, 1)
		ours, ref := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 5; i++ { // alternating, so a noisy stretch costs both sides
			ours = min(ours, timed(NewReader(bytes.NewReader(stream))))
			ref = min(ref, timed(flate.NewReader(io.MultiReader(bytes.NewReader(stream)))))
		}
		mbps := func(d time.Duration) float64 { return size / 1e6 / d.Seconds() }
		ratio := ref.Seconds() / ours.Seconds()
		t.Logf("%s: %d -> %d bytes; in-tree %.0f MB/s, compress/flate %.0f MB/s, %.2fx",
			sh.name, len(stream), size, mbps(ours), mbps(ref), ratio)
		if ratio < 1.5 {
			t.Errorf("%s: in-tree inflate is %.2fx compress/flate, want >= 1.5x", sh.name, ratio)
		}
	}
}
