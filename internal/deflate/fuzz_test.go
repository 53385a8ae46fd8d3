package deflate

import (
	"bytes"
	"compress/flate"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// countDiscard is a destination that allocates nothing.
type countDiscard struct{ n int }

func (c *countDiscard) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// FuzzDeflateAgree: arbitrary bytes, written in pieces whose sizes come from
// a split seed. The stream is compress/flate's BestSpeed stream for the same
// bytes, both inflates turn it back into them (check), a reused writer writes
// what a fresh one does, and encoding allocates nothing beyond the writer's
// fixed state.
func FuzzDeflateAgree(f *testing.F) {
	for _, sh := range shapes(2*blockSize + 300) {
		for i, n := range []int{1, 17, 129, 3000, blockSize + 1, len(sh.data)} {
			f.Add(sh.data[:n], uint16(i*777))
		}
	}
	f.Add([]byte{}, uint16(0))

	ref, _ := flate.NewWriter(nil, flate.BestSpeed) // reused: a fresh one is 1.2 MB an exec
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		// Write sizes: a fixed piece when the seed is small, else a sequence
		// stepped by it, so block boundaries fall anywhere inside a Write.
		pieces := func(write func([]byte)) {
			step := uint32(split)
			for rest := data; len(rest) > 0; {
				n := min(len(rest), 1+int(step%5000))
				write(rest[:n])
				rest = rest[n:]
				step = step*31 + 7
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var sink countDiscard
		w := NewWriter(&sink)
		pieces(func(p []byte) { w.Write(p) })
		w.Close()
		runtime.ReadMemStats(&after)
		// The writer and nothing that grows with the input.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(reflect.TypeOf(Writer{}).Size())+64<<10 {
			t.Fatalf("encoding %d bytes allocated %d", len(data), alloc)
		}

		var got, want bytes.Buffer
		w.Reset(&got)
		pieces(func(p []byte) {
			if n, err := w.Write(p); n != len(p) || err != nil {
				t.Fatalf("Write of %d bytes: %d, %v", len(p), n, err)
			}
		})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got.Len() != sink.n {
			t.Fatalf("the reused writer wrote %d bytes, a new one %d", got.Len(), sink.n)
		}
		ref.Reset(&want)
		ref.Write(data)
		ref.Close()
		check(t, fmt.Sprintf("%d bytes, split seed %d", len(data), split), got.Bytes(), data, want.Bytes())
	})
}
