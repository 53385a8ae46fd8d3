package rt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// bufEntry is one named buffer of a hand-laid buffer section.
type bufEntry struct {
	id   string
	data []byte
}

// laySection lays a buffer section out by hand: each buffer as given, in the
// order given, as its ID length word, the ID, its data length word and the
// data.
func laySection(b []byte, es ...bufEntry) []byte {
	for _, e := range es {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(e.id)))
		b = append(b, e.id...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(e.data)))
		b = append(b, e.data...)
	}
	return b
}

// entries returns 8-byte buffers of the given IDs, in the order given, the
// k-th filled with k+1.
func entries(ids ...string) []bufEntry {
	out := make([]bufEntry, len(ids))
	for k, id := range ids {
		out[k] = bufEntry{id, bytes.Repeat([]byte{byte(k + 1)}, 8)}
	}
	return out
}

// TestRestoreEntriesExactSet: the buffer check every Buffers snapshot
// restores through takes exactly the registry's buffers, in strictly
// increasing ID order, each of its size, and nothing after them — or copies
// nothing. The gob apps once restored a snapshot that left a buffer out (its
// stale bytes kept) or named one twice.
func TestRestoreEntriesExactSet(t *testing.T) {
	for _, c := range []struct {
		name  string
		saved []byte
		want  string // "" for accepted
	}{
		{"exactly the registry", laySection(nil, entries("a", "b", "c")...), ""},
		{"one left out", laySection(nil, entries("a", "c")...), "past the end"},
		{"one left out, another twice", laySection(nil, entries("a", "a", "c")...), "strictly increase"},
		{"out of order", laySection(nil, entries("b", "a", "c")...), "strictly increase"},
		{"one unknown", laySection(nil, entries("a", "b", "d")...), "unknown"},
		{"one more", laySection(nil, entries("a", "b", "c", "d")...), "past its last buffer"},
		{"none", nil, "past the end"},
		{"wrong size", laySection(nil, append(entries("a", "b"), bufEntry{"c", make([]byte, 9)})...), "size"},
	} {
		var b Buffers
		for _, id := range []string{"c", "a", "b"} {
			for i, buf := 0, b.Add(id, 8); i < len(buf); i++ {
				buf[i] = 0x55
			}
		}
		err := b.CheckSection("test", c.saved)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "test: ") || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want a test: error about %q", c.name, err, c.want)
		}
		if err == nil {
			b.RestoreSection(c.saved)
		}
		for _, id := range []string{"a", "b", "c"} {
			got, want := b.Get(id)[0], byte(0x55)
			if c.want == "" {
				want = byte(strings.Index("abc", id) + 1)
			}
			if got != want {
				t.Errorf("%s: buffer %q starts %#x, want %#x", c.name, id, got, want)
			}
		}
	}
}

// bufRank is the state of a rank that snapshots through Buffers: the header
// words Iter, Phase and a float64, two arrays and three buffers.
type bufRank struct {
	bufs   Buffers
	hdr    [3]uint64
	xs, ys []float64
}

func newBufRank(nx int) *bufRank {
	r := &bufRank{xs: make([]float64, nx), ys: make([]float64, 2)}
	for i, id := range []string{"sum", "halo", "acc"} {
		r.bufs.Add(id, 8+8*i)
	}
	return r
}

func (r *bufRank) snapshot() []byte { return r.bufs.Snapshot(r.hdr[:], r.xs, r.ys) }

func (r *bufRank) restore(data []byte) error {
	return r.bufs.Restore("test", data, r.hdr[:], 4, 10, r.xs, r.ys)
}

// TestBuffersRestoreHostile: Restore takes back exactly what Snapshot laid
// for the rank and refuses, with an error under the app's name that leaves
// the header, the arrays and the buffers as they were, every truncation, a
// phase past Step's cases, an iteration past the run, an array of another
// length, a buffer missing, unknown or extra, and a byte past the last
// buffer. Through gob, the examples restored a 3-element array at phase 9,
// and a snapshot holding only Iter, with a nil error.
func TestBuffersRestoreHostile(t *testing.T) {
	src := newBufRank(3)
	src.hdr = [3]uint64{7, 2, math.Float64bits(-0.25)}
	copy(src.xs, []float64{1, math.Inf(-1), 3})
	copy(src.ys, []float64{math.Copysign(0, -1), 5})
	for i, id := range []string{"acc", "halo", "sum"} {
		for j, buf := 0, src.bufs.Get(id); j < len(buf); j++ {
			buf[j] = byte(16*i + j)
		}
	}
	good := src.snapshot()
	head := good[:len(good)-src.bufs.SectionLen()]
	sec := []bufEntry{{"acc", src.bufs.Get("acc")}, {"halo", src.bufs.Get("halo")}, {"sum", src.bufs.Get("sum")}}
	if want := laySection(bytes.Clone(head), sec...); !bytes.Equal(good, want) {
		t.Fatal("the buffer section is not the buffers in ID order")
	}
	poke := func(i int, w uint64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[8*i:], w)
		return b
	}
	relay := func(es ...bufEntry) []byte { return laySection(bytes.Clone(head), es...) }
	type hostile struct {
		name, want string
		data       []byte
	}
	var cases []hostile
	for n := 0; n < len(good); n++ {
		cases = append(cases, hostile{fmt.Sprintf("truncated to %d bytes", n), "bytes", good[:n]})
	}
	long := newBufRank(4)
	long.hdr = src.hdr
	cases = append(cases,
		hostile{"phase past Step's cases", "phase 4 outside [0, 3]", poke(1, 4)},
		hostile{"phase 9", "phase", poke(1, 9)},
		hostile{"negative phase", "phase", poke(1, 1<<63)},
		hostile{"iteration past the run", "iteration 11 outside [0, 10]", poke(0, 11)},
		hostile{"negative iteration", "iteration", poke(0, ^uint64(0))},
		hostile{"an array of another length", "bytes", long.snapshot()},
		hostile{"only the iteration", "bytes", good[:8]},
		hostile{"a buffer missing", "", relay(sec[1:]...)},
		hostile{"a buffer unknown", "unknown", relay(sec[0], sec[1], bufEntry{"sun", sec[2].data})},
		hostile{"a buffer extra", "", relay(append(sec[:3:3], bufEntry{"zz", make([]byte, 8)})...)},
		hostile{"a byte past the last buffer", "", append(bytes.Clone(good), 0)},
	)

	dst := newBufRank(3)
	dst.hdr = [3]uint64{1, 1, 1}
	dst.xs[0], dst.ys[1] = 9, 9
	dst.bufs.Get("halo")[3] = 9
	before := dst.snapshot()
	for _, c := range cases {
		err := dst.restore(c.data)
		if err == nil || !strings.HasPrefix(err.Error(), "test: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a test: error about %q", c.name, err, c.want)
		}
		if after := dst.snapshot(); !bytes.Equal(after, before) {
			t.Errorf("%s: a refused snapshot changed the rank", c.name)
		}
	}
	if err := dst.restore(good); err != nil {
		t.Fatalf("the snapshot the cases edit is refused: %v", err)
	}
	if dst.hdr != src.hdr || !bytes.Equal(dst.snapshot(), good) {
		t.Fatal("restore did not round-trip the snapshot")
	}
}
