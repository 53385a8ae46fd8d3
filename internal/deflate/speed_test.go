package deflate

import (
	"compress/flate"
	"io"
	"testing"
	"time"
)

// The streams a checkpoint commit encodes: the two shapes the benchmark's
// applications fill their state with, at a size that is many blocks, and two
// small shards (a 64-rank job's per-rank state), where building three Huffman
// codes was most of the work. The 1.6 KB one has few distinct literals; the
// vasp_coll shard uses nearly all of them, and is what the store encodes 64
// times a checkpoint there.
type benchStream struct {
	name string
	data []byte
	gate float64 // BenchmarkDeflateRatio: at least this many times compress/flate
}

func benchStreams(tb testing.TB) []benchStream {
	return []benchStream{
		{"run_noise", runNoise(4 << 20), 1.5},
		{"noise_floats", noiseFloats(4 << 20), 1.5},
		{"small", noiseFloats(1600), 3},
		{"vasp_shard", vaspShard(tb), 3},
	}
}

// resetWriter is what this package's Writer and compress/flate's have in
// common.
type resetWriter interface {
	io.WriteCloser
	Reset(io.Writer)
}

// stream runs data through a reused writer the way the store's commit does:
// Reset, one Write, Close.
func stream(tb testing.TB, w resetWriter, data []byte) {
	w.Reset(io.Discard)
	if _, err := w.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkDeflate(b *testing.B) {
	for _, st := range benchStreams(b) {
		b.Run(st.name+"/ours", func(b *testing.B) {
			b.SetBytes(int64(len(st.data)))
			w := NewWriter(nil)
			for i := 0; i < b.N; i++ {
				stream(b, w, st.data)
			}
		})
		b.Run(st.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(len(st.data)))
			w, _ := flate.NewWriter(nil, flate.BestSpeed)
			for i := 0; i < b.N; i++ {
				stream(b, w, st.data)
			}
		})
	}
}

// BenchmarkDeflateRatio is the speed gate (b.Fatalf below it): on each stream
// this encoder is at least gate times compress/flate's pooled BestSpeed writer
// in the same process, best of 5 each. A benchmark so that `go test ./...`
// asserts nothing about host speed; CI runs it by name with -benchtime=1x,
// without -race or -cover (the detector charges per load and coverage per
// statement, this package's only; the ratio means nothing under either).
func BenchmarkDeflateRatio(b *testing.B) {
	ours := NewWriter(nil)
	ref, _ := flate.NewWriter(nil, flate.BestSpeed)
	for _, st := range benchStreams(b) {
		reps := max(1, 1<<20/len(st.data)) // a small stream is timed over many
		timed := func(w resetWriter) time.Duration {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				stream(b, w, st.data)
			}
			return time.Since(t0) / time.Duration(reps)
		}
		mbps := func(d time.Duration) float64 { return float64(len(st.data)) / 1e6 / d.Seconds() }
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bestOurs, bestRef := time.Duration(1<<62), time.Duration(1<<62)
				for j := 0; j < 5; j++ { // alternating, so a noisy stretch costs both sides
					bestOurs = min(bestOurs, timed(ours))
					bestRef = min(bestRef, timed(ref))
				}
				ratio := bestRef.Seconds() / bestOurs.Seconds()
				if ratio < st.gate {
					b.Fatalf("in-tree deflate is %.2fx compress/flate, want >= %.1fx", ratio, st.gate)
				}
				b.ReportMetric(mbps(bestOurs), "MB/s")
				b.ReportMetric(mbps(bestRef), "stdlib-MB/s")
				b.ReportMetric(ratio, "x-stdlib")
			}
		})
	}
}
