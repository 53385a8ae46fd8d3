package deflate

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// compress/flate's BestSpeed writer is the oracle throughout: this package
// replaced it on the store's write path and promises its bytes.

// lengths sit on every branch of the block logic: nothing, a stored tail
// (<= 16), a Huffman tail (< 128), the shortest matched block, one byte
// either side of one and two full blocks, and a many-block stream whose last
// block is a stored tail.
var lengths = []int{0, 1, 16, 17, 127, 128, 129, 65534, 65535, 65536, 65537, 131070, 131071, 3<<20 + 24}

var splits = []int{0, 4096, 777, 1}

// TestDeflateAgree: shapes x lengths x Write splits, in shuffled order
// through ONE writer reused by Reset, each stream byte-equal to the
// reference's and inflating back to its input.
func TestDeflateAgree(t *testing.T) {
	type job struct {
		sh     shape
		length int
		split  int
	}
	var jobs []job
	want := map[string][]byte{}
	for _, sh := range shapes(lengths[len(lengths)-1]) {
		for _, n := range lengths {
			if testing.Short() && n > 1<<20 && sh.name != "run_noise" && sh.name != "periodic_64k" {
				continue
			}
			want[fmt.Sprint(sh.name, n)] = reference(t, sh.data[:n])
			for _, split := range splits {
				jobs = append(jobs, job{sh, n, split})
			}
		}
	}
	rand.New(rand.NewSource(2)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	w := NewWriter(nil)
	for _, j := range jobs {
		data := j.sh.data[:j.length]
		label := fmt.Sprintf("%s/%d bytes/writes of %d", j.sh.name, j.length, j.split)
		check(t, label, encode(t, w, data, j.split), data, want[fmt.Sprint(j.sh.name, j.length)])
	}
}

// TestCanary pins this package's own bytes for one input, whatever the
// toolchain's compress/flate does, and says so when the latter has moved.
func TestCanary(t *testing.T) {
	// Published XXH64 vectors, seed 0: the canary's digest is what it says.
	for in, want := range map[string]uint64{
		"":    0xef46db3751d8e999,
		"a":   0xd24ec4f1a98c6e5b,
		"abc": 0x44bc2cf5ad770999,
		"Nobody inspects the spammish repetition": 0xfbcea83c8a378bf1,
	} {
		if got := xxh64([]byte(in)); got != want {
			t.Fatalf("xxh64(%q) = %#x, want %#x", in, got, want)
		}
	}
	if got := xxh64(encode(t, NewWriter(nil), canaryInput(), 0)); got != canaryDigest {
		t.Errorf("in-tree encoder's canary stream has XXH64 %#x, want %#x", got, uint64(canaryDigest))
	}
	if referenceChanged() {
		t.Log("reference encoder changed: compress/flate's BestSpeed stream for the canary input is not the one this package was ported against (go1.24); equality with it is no longer checked; in-tree output is pinned by TestStoredBytesGolden")
	}
}

// TestDeflateOffsetWrap runs the matcher with cur just below bufferReset, so
// the table's offsets are shifted down mid-stream with a block of history
// behind them, and again by the Reset after it with none; and from a cur
// that Reset itself pushes over. The bytes must not notice.
func TestDeflateOffsetWrap(t *testing.T) {
	for _, sh := range shapes(4*blockSize + 100) {
		want := reference(t, sh.data)
		w := NewWriter(nil)
		for _, cur := range []int32{
			bufferReset - maxMatchOffset - blockSize + 7, // over the line after the first block
			bufferReset - maxMatchOffset - 2*blockSize,   // exactly on it after the second
			bufferReset - 5, // Reset crosses it
		} {
			w.cur = cur
			got := encode(t, w, sh.data, 0)
			check(t, fmt.Sprintf("%s/cur %d", sh.name, cur), got, sh.data, want)
			if w.cur >= bufferReset || w.cur > maxMatchOffset+1+int32(len(sh.data)) {
				t.Errorf("%s: cur %d -> %d: offsets were not shifted down", sh.name, cur, w.cur)
			}
			// The next stream starts from the shifted table.
			check(t, fmt.Sprintf("%s/after cur %d", sh.name, cur), encode(t, w, sh.data, 0), sh.data, want)
		}
	}
}

// failAfter accepts n bytes and then fails every Write.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestDeflateWriterLifecycle: a destination error is sticky and comes back
// from Close; Reset makes the same writer whole again; a second Close is a
// no-op; Write after Close is an error.
func TestDeflateWriterLifecycle(t *testing.T) {
	data := runNoise(5*blockSize + 1000)
	want := reference(t, data)
	w := NewWriter(nil)
	errSink := errors.New("sink full")
	for _, failAt := range []int{0, 1, 1000, len(want) / 2, len(want) - 1} {
		w.Reset(&failAfter{n: failAt, err: errSink})
		var werr error
		for rest := data; len(rest) > 0 && werr == nil; rest = rest[min(len(rest), 10_000):] {
			_, werr = w.Write(rest[:min(len(rest), 10_000)])
		}
		if werr != nil && !errors.Is(werr, errSink) {
			t.Fatalf("sink failing at byte %d: Write returned %v", failAt, werr)
		}
		if werr != nil {
			if _, err := w.Write(data[:1]); !errors.Is(err, errSink) {
				t.Errorf("sink failing at byte %d: Write after the failure returned %v, want the sink's error", failAt, err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := w.Close(); !errors.Is(err, errSink) {
				t.Errorf("sink failing at byte %d: Close #%d returned %v, want the sink's error", failAt, i+1, err)
			}
		}
		check(t, fmt.Sprintf("after a sink failing at byte %d", failAt), encode(t, w, data, 0), data, want)
	}

	var buf bytes.Buffer
	w.Reset(&buf)
	w.Write(data[:100])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.Close(); err != nil || buf.Len() != n {
		t.Errorf("second Close: err %v, wrote %d more bytes; want a no-op", err, buf.Len()-n)
	}
	if _, err := w.Write(data[:1]); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after Close returned %v, want ErrClosed", err)
	}
	check(t, "100 bytes", buf.Bytes(), data[:100], reference(t, data[:100]))
}

// TestDeflateSteadyState: the writer's state is one fixed-size struct —
// nothing in it can grow with the input — of at most 640 KiB, and a reused
// writer encodes a shard-sized stream without allocating.
func TestDeflateSteadyState(t *testing.T) {
	typ := reflect.TypeOf(Writer{})
	if typ.Size() > 640<<10 {
		t.Errorf("Writer is %d bytes, want <= 640 KiB", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Chan, reflect.String:
			t.Errorf("Writer.%s is a %s: state that could be sized from the input", f.Name, f.Type.Kind())
		}
	}
	t.Logf("Writer: %d bytes", typ.Size())

	data := noiseFloats(1600)
	w := NewWriter(io.Discard)
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset(io.Discard)
		w.Write(data)
		w.Close()
	}); allocs != 0 {
		t.Errorf("Reset + a %d-byte stream + Close allocates %v times, want 0", len(data), allocs)
	}
}
