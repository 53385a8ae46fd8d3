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
	// window, if set: a whole-stream read is at least this many times the
	// window path's reads into the same buffer. Set where the copy-out the
	// direct path saves is well clear of timing noise: the long copies. On
	// the literal-bound shapes it is a few percent of the decode.
	window float64
}

func benchStreams(tb testing.TB) []benchStream {
	return []benchStream{
		{"noise_floats", noiseFloats(4 << 20), 1.5, 0},
		{"run_noise", runNoise(4 << 20), 1.5, 0},
		{"vasp_shard", vaspShard(tb), 1.5, 0},
		{"periodic_floats", periodicFloats(4 << 20), 1.5, 1.0},
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

// drain decodes through r, each Read into the next step bytes of buf
// (starting over at its front once it is full), and returns the byte count.
func drain(tb testing.TB, r io.Reader, buf []byte, step int) int {
	total, off := 0, 0
	for {
		if off == len(buf) {
			off = 0
		}
		n, err := r.Read(buf[off:min(off+step, len(buf))])
		off += n
		total += n
		if err == io.EOF {
			return total
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// The destinations a stream is timed into: the drain, 256 KiB a Read into
// one reused buffer, as the store's payload reads of one or more extents
// go; a stream-sized buffer filled by one Read, as a full shard's
// App payload is (a direct read unless the stream is under directMin); and
// the same buffer filled by the largest reads the window still serves,
// which is what a large read cost before direct reads.
type dest struct {
	name       string
	size, step func(stream int) int
}

var (
	drained = dest{"drain", func(int) int { return 256 << 10 }, func(int) int { return 256 << 10 }}
	whole   = dest{"whole", func(n int) int { return n }, func(n int) int { return n }}
	window  = dest{"window", func(n int) int { return n }, func(int) int { return directMin - 1 }}
)

func BenchmarkInflate(b *testing.B) {
	for _, st := range benchStreams(b) {
		size := len(st.data)
		stream := deflate(b, st.data, shardLevel, 1)
		for _, d := range []dest{drained, whole, window} {
			buf, step := make([]byte, d.size(size)), d.step(size)
			b.Run(st.name+"/ours/"+d.name, func(b *testing.B) {
				b.SetBytes(int64(size))
				r := new(Reader)
				defer r.Close()
				for i := 0; i < b.N; i++ {
					r.Reset(bytes.NewReader(stream))
					if n := drain(b, r, buf, step); n != size {
						b.Fatalf("decoded %d bytes, want %d", n, size)
					}
				}
			})
		}
		buf := make([]byte, 256<<10)
		b.Run(st.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				// What flateCodec.NewReader did per shard: a fresh decoder
				// over a source that is not an io.ByteReader.
				r := flate.NewReader(io.MultiReader(bytes.NewReader(stream)))
				if n := drain(b, r, buf, len(buf)); n != size {
					b.Fatalf("decoded %d bytes, want %d", n, size)
				}
			}
		})
	}
}

// BenchmarkInflateRatio is the speed gate (b.Fatalf below it): on each stream
// this decoder, reused through Reset as the store's pool reuses it, is at
// least gate times compress/flate's in the same process (best of 5 each),
// both draining 256 KiB a Read and into a whole-stream buffer, each against
// the reference reading into the same buffer. The reference reads as it did
// in the store: a fresh decoder per stream, from a source that is not an
// io.ByteReader, so behind the bufio it adds itself. A small stream is timed
// over many. A stream of at least directMin bytes must also fill its
// whole-stream buffer in one Read, which the window path cannot (it serves at
// most a window a Read), so a large read that silently fell back to the
// window fails here on every such shape; and where the shape sets window, be
// that much faster than the window path's reads. vasp_shard's 2 KB is read
// through the window either way, as vasp_coll's loads read it. A benchmark
// so that `go test ./...` asserts nothing about host speed; CI runs it by
// name with -benchtime=1x, without -race (the detector charges per load; the
// ratio means nothing under it).
func BenchmarkInflateRatio(b *testing.B) {
	ours := new(Reader)
	defer ours.Close()
	for _, st := range benchStreams(b) {
		size := len(st.data)
		stream := deflate(b, st.data, shardLevel, 1)
		reps := max(1, 1<<20/size)
		openOurs := func() io.Reader { ours.Reset(bytes.NewReader(stream)); return ours }
		openRef := func() io.Reader { return flate.NewReader(io.MultiReader(bytes.NewReader(stream))) }
		// The timed sides: ours into each destination, the reference into
		// the two the gate compares.
		sides := []struct {
			open func() io.Reader
			dest
		}{{openOurs, drained}, {openOurs, whole}, {openOurs, window}, {openRef, drained}, {openRef, whole}}
		bufs := make([][]byte, len(sides))
		for i, sd := range sides {
			bufs[i] = make([]byte, sd.size(size))
		}
		timed := func(i int) time.Duration {
			t0 := time.Now()
			for j := 0; j < reps; j++ {
				if n := drain(b, sides[i].open(), bufs[i], sides[i].step(size)); n != size {
					b.Fatalf("decoded %d bytes, want %d", n, size)
				}
			}
			return time.Since(t0) / time.Duration(reps)
		}
		mbps := func(d time.Duration) float64 { return float64(size) / 1e6 / d.Seconds() }
		b.Run(st.name, func(b *testing.B) {
			if n, err := openOurs().Read(bufs[1]); size >= directMin && n != size {
				b.Fatalf("one Read of a whole-stream buffer served %d of %d bytes (%v): large reads fell back to the window", n, size, err)
			}
			for i := 0; i < b.N; i++ {
				best := make([]time.Duration, len(sides))
				for k := range best {
					best[k] = 1 << 62
				}
				for j := 0; j < 5; j++ { // alternating, so a noisy stretch costs every side
					for k := range sides {
						best[k] = min(best[k], timed(k))
					}
				}
				drainOurs, wholeOurs, windowOurs, drainRef, wholeRef := best[0], best[1], best[2], best[3], best[4]
				for _, g := range []struct {
					name      string
					ours, ref time.Duration
				}{{"256 KiB reads", drainOurs, drainRef}, {"one whole-stream read", wholeOurs, wholeRef}} {
					if ratio := g.ref.Seconds() / g.ours.Seconds(); ratio < st.gate {
						b.Fatalf("in-tree inflate, %s, is %.2fx compress/flate, want >= %.1fx", g.name, ratio, st.gate)
					}
				}
				direct := windowOurs.Seconds() / wholeOurs.Seconds()
				if direct < st.window {
					b.Fatalf("one whole-stream read is %.2fx the window path's reads into the same buffer, want >= %.1fx", direct, st.window)
				}
				b.ReportMetric(mbps(drainOurs), "MB/s")
				b.ReportMetric(mbps(wholeOurs), "whole-MB/s")
				b.ReportMetric(mbps(drainRef), "stdlib-MB/s")
				b.ReportMetric(drainRef.Seconds()/drainOurs.Seconds(), "x-stdlib")
				b.ReportMetric(wholeRef.Seconds()/wholeOurs.Seconds(), "whole-x-stdlib")
				b.ReportMetric(direct, "x-window")
				b.ReportMetric(float64(drainOurs.Nanoseconds())/1e3, "us/stream")
			}
		})
	}
}
