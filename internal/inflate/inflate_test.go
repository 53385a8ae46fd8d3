package inflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"
)

// compress/flate's reader is the oracle throughout: this package replaced it
// on the store's read path, and these tests are the only place it is still
// imported for reading.

// reference decodes stream with compress/flate, returning what came out
// before any error.
func reference(stream []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
}

// newReader opens a Reader on src: the zero value and Reset.
func newReader(src io.Reader) *Reader {
	r := new(Reader)
	r.Reset(src)
	return r
}

// ours decodes stream with this package through src (nil: a bytes.Reader)
// in reads of at most bufSize bytes.
func ours(stream []byte, wrap func(io.Reader) io.Reader, bufSize int) ([]byte, error) {
	return oursSplit(stream, wrap, bufSize, func() int { return bufSize })
}

// oursSplit is ours with each Read's size drawn from next, at most bufSize.
// Every destination's capacity ends where its length does, so a decoder
// that wrote past len(p) would panic.
func oursSplit(stream []byte, wrap func(io.Reader) io.Reader, bufSize int, next func() int) ([]byte, error) {
	var src io.Reader = bytes.NewReader(stream)
	if wrap != nil {
		src = wrap(src)
	}
	r := newReader(src)
	defer r.Close()
	var out []byte
	buf := make([]byte, bufSize)
	for {
		size := min(next(), bufSize)
		n, err := r.Read(buf[:size:size])
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

var sources = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"plain", nil},
	{"one_byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data_err", iotest.DataErrReader},
}

// TestInflateRoundTrip: every data shape x level x single/multi-block stream
// x source behaviour x destination size decodes to the original bytes.
func TestInflateRoundTrip(t *testing.T) {
	size := 150 << 10 // several window slides; long enough for 15-bit codes
	if testing.Short() {
		size = 80 << 10 // one slide
	}
	for _, sh := range shapes(size) {
		for _, level := range levels {
			for _, writes := range []int{1, 5} {
				stream := deflate(t, sh.data, level, writes)
				for si, src := range sources {
					// Small destinations against the plain source only: a
					// one-byte source under a one-byte destination tests
					// nothing the two do not test apart.
					bufs := []int{64 << 10}
					if si == 0 {
						bufs = []int{1, 7, 4096, 1 << 20}
						if testing.Short() {
							bufs = bufs[1:]
						}
					}
					for _, bufSize := range bufs {
						got, err := ours(stream, src.wrap, bufSize)
						if err != nil || !bytes.Equal(got, sh.data) {
							t.Fatalf("%s level %d writes %d source %s buf %d: %d bytes, err %v; want %d bytes",
								sh.name, level, writes, src.name, bufSize, len(got), err, len(sh.data))
						}
					}
				}
			}
		}
	}
}

// TestInflateReadSizes: every corpus shape, the benchmark's in-place
// straggler floats and a real vasp_coll shard, at four levels in one and in
// three blocks, decode to compress/flate's bytes whatever the reads: 1 B, a
// page, either side of directMin (the window's largest read and the direct
// path's smallest), 64 KiB, 1 MiB, the whole stream, and a seeded random
// split that crosses the boundary both ways, so direct reads start at every
// kind of offset and their matches reach back across p's start into the
// window's history. A whole-stream read of a large stream is one Read: the
// window cannot serve that, so a fallback to it fails here.
func TestInflateReadSizes(t *testing.T) {
	size := 300 << 10
	if testing.Short() {
		size = 100 << 10
	}
	corpus := append(shapes(size), shape{"periodic_floats", periodicFloats(size)}, shape{"vasp_shard", vaspShard(t)})
	rng := rand.New(rand.NewSource(7))
	for _, sh := range corpus {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 1, 6} {
			for _, writes := range []int{1, 3} {
				stream := deflate(t, sh.data, level, writes)
				want, err := reference(stream)
				if err != nil || !bytes.Equal(want, sh.data) {
					t.Fatalf("%s level %d: reference decode failed: %v", sh.name, level, err)
				}
				whole := max(1, len(want))
				for _, n := range []int{1, 4 << 10, directMin - 1, directMin, directMin + 1, 64 << 10, 1 << 20, whole} {
					if got, err := ours(stream, nil, n); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s level %d writes %d, reads of %d: %d bytes, err %v; want %d", sh.name, level, writes, n, len(got), err, len(want))
					}
				}
				split := func() int {
					switch rng.Intn(3) {
					case 0:
						return 1 + rng.Intn(64)
					case 1:
						return directMin - 400 + rng.Intn(800)
					}
					return 1 + rng.Intn(whole)
				}
				if got, err := oursSplit(stream, nil, whole, split); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s level %d writes %d, random reads: %d bytes, err %v; want %d", sh.name, level, writes, len(got), err, len(want))
				}
				if len(want) >= directMin {
					r := newReader(bytes.NewReader(stream))
					n, _ := r.Read(make([]byte, len(want)))
					r.Close()
					if n != len(want) {
						t.Fatalf("%s level %d writes %d: one whole-stream Read served %d of %d bytes", sh.name, level, writes, n, len(want))
					}
				}
			}
		}
	}

	// Long matches that straddle a direct read's start: 20 KiB of noise
	// repeated is 258-byte matches 20 480 bytes back, so each direct read's
	// first 20 KiB copies from the window's history. Read sizes step across
	// a match's length, so the reads start at every offset within one.
	period := make([]byte, 20<<10)
	rng.Read(period)
	data := bytes.Repeat(period, 32)
	for _, level := range []int{1, 6} {
		stream := deflate(t, data, level, 1)
		for k := 0; k < 2*maxMatch; k += 3 {
			if got, err := ours(stream, nil, directMin+k); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("repeated noise level %d, reads of %d: %d bytes, err %v; want %d", level, directMin+k, len(got), err, len(data))
			}
		}
	}
}

// checkCut holds a truncated stream, read through the window and directly
// (verdictBufs), to the reference: an error exactly when the reference errors
// (io.ErrUnexpectedEOF, nothing vaguer), and the bytes that came out first a
// prefix of the data that is no shorter than the reference's (it asks for at
// least the end-of-block code's length per symbol, so it can stop a few
// decodable literals early; never the reverse).
func checkCut(t *testing.T, label string, stream, data []byte, cut int) {
	t.Helper()
	want, wantErr := reference(stream[:cut])
	for _, bufSize := range verdictBufs {
		got, err := ours(stream[:cut], nil, bufSize)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s buf %d cut at %d of %d: err %v, reference %v", label, bufSize, cut, len(stream), err, wantErr)
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			t.Fatalf("%s buf %d cut at %d of %d: err %v, want io.ErrUnexpectedEOF", label, bufSize, cut, len(stream), err)
		}
		if !bytes.HasPrefix(data, got) || len(got) < len(want) {
			t.Fatalf("%s buf %d cut at %d of %d: %d bytes out (reference %d), not a prefix of the data or shorter than the reference's",
				label, bufSize, cut, len(stream), len(got), len(want))
		}
		if err == nil && len(got) != len(data) {
			t.Fatalf("%s buf %d cut at %d of %d: clean end after %d of %d bytes", label, bufSize, cut, len(stream), len(got), len(data))
		}
	}
}

// verdictBufs are the read sizes the truncation and corruption tests decode
// with: the window's path and a direct read.
var verdictBufs = []int{4096, directMin}

// shortDiv thins the sampled differential tests under -short (the race run).
func shortDiv() int {
	if testing.Short() {
		return 4
	}
	return 1
}

// TestInflateTruncation: every cut of small streams (every fourth under
// -short), 300 random cuts of each large one.
func TestInflateTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range shapes(600) {
		for _, level := range levels {
			stream := deflate(t, sh.data, level, 2)
			for cut := 0; cut <= len(stream); cut += shortDiv() {
				checkCut(t, fmt.Sprintf("small %s level %d", sh.name, level), stream, sh.data, cut)
			}
		}
	}
	for _, sh := range shapes(150 << 10) {
		for _, level := range []int{flate.NoCompression, 1, 9} {
			stream := deflate(t, sh.data, level, 3)
			for i := 0; i < 300/3/shortDiv(); i++ {
				checkCut(t, fmt.Sprintf("large %s level %d", sh.name, level), stream, sh.data, rng.Intn(len(stream)+1))
			}
		}
	}
}

// TestInflateBitFlips: a damaged stream fails or survives exactly as it does
// under the reference, and a survivor decodes to the same bytes.
func TestInflateBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range shapes(40 << 10) {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 1, 6} {
			stream := deflate(t, sh.data, level, 2)
			for i := 0; i < 300/4/shortDiv(); i++ {
				bit := rng.Intn(len(stream) * 8)
				stream[bit/8] ^= 1 << (bit % 8)
				agree(t, fmt.Sprintf("%s level %d bit %d", sh.name, level, bit), stream)
				stream[bit/8] ^= 1 << (bit % 8)
			}
		}
	}
}

// agree requires the reference's verdict on stream, in the window's reads
// and in direct ones: both fail, or both succeed with equal output.
func agree(t *testing.T, label string, stream []byte) {
	t.Helper()
	want, wantErr := reference(stream)
	for _, bufSize := range verdictBufs {
		got, err := ours(stream, nil, bufSize)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s, buf %d: err %v, reference %v", label, bufSize, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s, buf %d: decoded %d bytes, reference %d, and they differ", label, bufSize, len(got), len(want))
		}
		if err != nil && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s, buf %d: err %v is neither truncation nor ErrCorrupt", label, bufSize, err)
		}
	}
}

// bitWriter builds DEFLATE streams by hand, low bit first.
type bitWriter struct {
	out []byte
	n   uint // bits used in the last byte
}

func (w *bitWriter) bits(v, n uint) *bitWriter {
	for i := uint(0); i < n; i++ {
		if w.n == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>i&1) << w.n
		w.n = (w.n + 1) & 7
	}
	return w
}

// code writes a Huffman code, which RFC 1951 packs most significant bit
// first.
func (w *bitWriter) code(c huffCode) *bitWriter {
	for i := c.n; i > 0; i-- {
		w.bits(c.v>>(i-1)&1, 1)
	}
	return w
}

type huffCode struct{ v, n uint }

// canonical assigns RFC 1951 3.2.2 codes to a set of lengths.
func canonical(lens []uint) []huffCode {
	codes := make([]huffCode, len(lens))
	next := uint(0)
	for n := uint(1); n <= 15; n++ {
		for sym, l := range lens {
			if l == n {
				codes[sym] = huffCode{next, n}
				next++
			}
		}
		next <<= 1
	}
	return codes
}

// preLens is a complete code-length code over all 19 symbols (13 of four
// bits, 6 of five), so a hand-built header can state any length and any
// repeat.
var preLens = func() []uint {
	l := make([]uint, 19)
	for i := range l {
		l[i] = 4
		if i >= 13 {
			l[i] = 5
		}
	}
	return l
}()

// dynamic starts a final dynamic block declaring nlit and ndist codes with
// preLens as its code-length code, and returns the writer and that code.
func dynamic(nlit, ndist uint) (*bitWriter, []huffCode) {
	w := new(bitWriter).bits(1, 1).bits(2, 2).bits(nlit-257, 5).bits(ndist-1, 5).bits(19-4, 4)
	for _, sym := range preOrder {
		w.bits(preLens[sym], 3)
	}
	return w, canonical(preLens)
}

// dynamicBlock is dynamic plus the code lengths themselves, one code-length
// symbol each; it returns the two codes those lengths define.
func dynamicBlock(lit, dist []uint) (w *bitWriter, litCodes, distCodes []huffCode) {
	w, pre := dynamic(uint(len(lit)), uint(len(dist)))
	for _, l := range append(append([]uint{}, lit...), dist...) {
		w.code(pre[l])
	}
	return w, canonical(lit), canonical(dist)
}

func litLens(set map[int]uint) []uint {
	l := make([]uint, 258)
	for sym, n := range set {
		l[sym] = n
	}
	return l
}

// TestInflateHandBuilt: headers no encoder emits, and the fast loop's worst
// cases (budgetStreams). Each is held to the reference's verdict; want
// states it, so the table fails if both change.
func TestInflateHandBuilt(t *testing.T) {
	fixed := func() *bitWriter { return new(bitWriter).bits(1, 1).bits(1, 2) }
	fixedLitA := huffCode{0x30 + 'a', 8} // fixed code of a literal below 144
	type tc struct {
		name   string
		stream []byte
		want   string // decoded output; "!" = corrupt, "?" = truncated
	}
	var cases []tc
	add := func(name string, w *bitWriter, want string) { cases = append(cases, tc{name, w.out, want}) }

	add("reserved block type 3", new(bitWriter).bits(1, 1).bits(3, 2).bits(0, 13), "!")
	add("stored LEN/NLEN mismatch", new(bitWriter).bits(1, 1).bits(0, 2).bits(0, 5).bits(3, 16).bits(^uint(3)^1, 16).bits('a', 8).bits('b', 8).bits('c', 8), "!")
	add("stored block", new(bitWriter).bits(1, 1).bits(0, 2).bits(0, 5).bits(3, 16).bits(^uint(3), 16).bits('a', 8).bits('b', 8).bits('c', 8), "abc")
	add("stored block short of its length", new(bitWriter).bits(1, 1).bits(0, 2).bits(0, 5).bits(3, 16).bits(^uint(3), 16).bits('a', 8), "?")
	add("HLIT 287", new(bitWriter).bits(1, 1).bits(2, 2).bits(30, 5).bits(0, 5).bits(0, 4).bits(0, 64), "!")
	add("HDIST 31", new(bitWriter).bits(1, 1).bits(2, 2).bits(0, 5).bits(30, 5).bits(0, 4).bits(0, 64), "!")
	add("over-subscribed code-length code", // three one-bit codes
		new(bitWriter).bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(0, 4).bits(1, 3).bits(1, 3).bits(1, 3).bits(0, 3).bits(0, 64), "!")
	add("incomplete code-length code", // two two-bit codes
		new(bitWriter).bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(0, 4).bits(2, 3).bits(2, 3).bits(0, 3).bits(0, 3).bits(0, 64), "!")

	w, pre := dynamic(257, 1)
	add("repeat code 16 first", w.code(pre[16]).bits(0, 2).bits(0, 64), "!")
	w, pre = dynamic(257, 1)
	for i := 0; i < 2; i++ { // 2 x 138 zeros > 258 lengths
		w.code(pre[18]).bits(127, 7)
	}
	add("repeat past the last length", w.bits(0, 64), "!")

	w, _, _ = dynamicBlock(litLens(map[int]uint{'a': 1, 'b': 1, 256: 1}), []uint{0})
	add("over-subscribed literal set", w.bits(0, 64), "!")
	w, _, _ = dynamicBlock(litLens(map[int]uint{'a': 2, 256: 2}), []uint{0})
	add("incomplete literal set", w.bits(0, 64), "!")
	w, _, _ = dynamicBlock(litLens(map[int]uint{'a': 1, 256: 2}), []uint{0})
	add("incomplete literal set of mixed lengths", w.bits(0, 64), "!")
	w, _, _ = dynamicBlock(litLens(map[int]uint{256: 2}), []uint{0})
	add("single two-bit code", w.bits(0, 64), "!")
	w, lc, _ := dynamicBlock(litLens(map[int]uint{256: 1}), []uint{0})
	add("single one-bit code: end of block only", w.code(lc[256]), "")
	w, _, _ = dynamicBlock(litLens(map[int]uint{256: 1}), []uint{0})
	add("single one-bit code, the other bit", w.bits(1, 1).bits(0, 64), "!")

	match := litLens(map[int]uint{'a': 1, 256: 2, 257: 2}) // 257: length 3
	w, lc, dc := dynamicBlock(match, []uint{1})
	add("single one-bit distance code", w.code(lc['a']).code(lc[257]).code(dc[0]).code(lc[256]), "aaaa")
	w, lc, _ = dynamicBlock(match, []uint{1})
	add("single one-bit distance code, the other bit", w.code(lc['a']).code(lc[257]).bits(1, 1).bits(0, 64), "!")
	w, lc, _ = dynamicBlock(match, []uint{0})
	add("match with no distance codes", w.code(lc['a']).code(lc[257]).bits(0, 64), "!")
	w, lc, dc = dynamicBlock(match, []uint{1, 1})
	add("distance beyond the bytes produced", w.code(lc['a']).code(lc[257]).code(dc[1]).code(lc[256]), "!")
	w, lc, dc = dynamicBlock(match, []uint{1, 1})
	add("dynamic block cut inside a match", w.code(lc['a']).code(lc[257]), "?")

	add("fixed: distance beyond the bytes produced", fixed().code(fixedLitA).code(huffCode{1, 7}).code(huffCode{1, 5}).code(huffCode{0, 7}), "!")
	add("fixed: overlapping match", fixed().code(fixedLitA).code(huffCode{1, 7}).code(huffCode{0, 5}).code(huffCode{0, 7}), "aaaa")
	add("fixed: distance code 30", fixed().code(fixedLitA).code(huffCode{1, 7}).code(huffCode{30, 5}).bits(0, 64), "!")
	add("fixed: distance code 31", fixed().code(fixedLitA).code(huffCode{1, 7}).code(huffCode{31, 5}).bits(0, 64), "!")
	add("fixed: length code 286", fixed().code(fixedLitA).code(huffCode{0xc0 + 286 - 280, 8}).bits(0, 64), "!")
	add("fixed: length code 287", fixed().code(fixedLitA).code(huffCode{0xc0 + 287 - 280, 8}).bits(0, 64), "!")
	add("fixed: no end of block", fixed().code(fixedLitA), "?")
	add("empty input", new(bitWriter), "?")

	for _, b := range budgetStreams() {
		cases = append(cases, tc{b.name, b.stream, string(b.data)})
	}

	// Every verdict that does not depend on where the input ends is also
	// taken with input to spare, which is what lets the fast loop run.
	for _, c := range cases {
		if c.want != "?" {
			cases = append(cases, tc{c.name + " (fast loop)", append(c.stream[:len(c.stream):len(c.stream)], make([]byte, 32)...), c.want})
		}
	}
	for _, c := range cases {
		agree(t, c.name, c.stream)
		got, err := ours(c.stream, nil, 4096)
		switch c.want {
		case "!":
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %d bytes, err %v; want ErrCorrupt", c.name, len(got), err)
			}
		case "?":
			if err != io.ErrUnexpectedEOF {
				t.Errorf("%s: %d bytes, err %v; want io.ErrUnexpectedEOF", c.name, len(got), err)
			}
		default:
			if err != nil || string(got) != c.want {
				t.Errorf("%s: %q, err %v; want %q", c.name, got, err, c.want)
			}
		}
	}

	// The worst cases again, with every count of trailing bytes up to past
	// fastIn (the bytes after the final block are never decoded, but the
	// fast loop runs on them), and cut at every byte of the dynamic block.
	// For each iteration of the fast loop some cut leaves it exactly fastIn
	// bytes to start from; the input buffer past the cut holds random bytes,
	// so a loop that took a bit from beyond its input would decode them.
	rng := rand.New(rand.NewSource(5))
	for _, b := range budgetStreams() {
		for n := 0; n <= fastIn+8; n++ {
			stream := append(b.stream[:len(b.stream):len(b.stream)], bytes.Repeat([]byte{0xff}, n)...)
			if got, err := ours(stream, nil, 4096); err != nil || !bytes.Equal(got, b.data) {
				t.Fatalf("%s, %d trailing bytes: %d bytes, err %v; want %d", b.name, n, len(got), err, len(b.data))
			}
		}
		for cut := b.dynamicAt; cut < len(b.stream); cut++ {
			r := newReader(bytes.NewReader(b.stream[:cut]))
			rng.Read(r.s.in[:])
			got, err := io.ReadAll(r)
			r.Close()
			if err != io.ErrUnexpectedEOF || !bytes.HasPrefix(b.data, got) {
				t.Fatalf("%s cut at %d of %d: %d bytes, err %v; want a prefix of the data and io.ErrUnexpectedEOF",
					b.name, cut, len(b.stream), len(got), err)
			}
		}
	}
}

// budgetStream is a stream at the fast loop's worst case, with what it
// decodes to; its dynamic block starts at byte dynamicAt.
type budgetStream struct {
	name         string
	stream, data []byte
	dynamicAt    int
}

// budgetStreams are final dynamic blocks behind a stored block of 25 000
// random bytes, the history their long distance reaches into. The
// literal/length code has three 10-bit literals, and under one 10-bit prefix
// codes of 11 to 15 bits: a literal and length 284 (5 extra bits) take 15.
// The distance code runs from 1 to 15 bits; 28 (13 extra bits) takes 15. So
// the match "*" is the longest step the fast loop takes, a subtable length
// and a subtable distance with all their extra bits (48 bits), and the
// streams put it behind zero to five literals, at every position in the
// loop's groups of three. Every stream ends with end-of-block.
func budgetStreams() []budgetStream {
	hist := make([]byte, 25000)
	rand.New(rand.NewSource(4)).Read(hist)
	stored := new(bitWriter).bits(0, 1).bits(0, 2).bits(0, 5).bits(uint(len(hist)), 16).bits(^uint(len(hist)), 16)
	stored.out = append(stored.out, hist...)

	lit := make([]uint, 286)
	for sym, n := range map[int]uint{'q': 1, 256: 2, 'd': 3, 'e': 4, 'f': 5, 'g': 6, 'h': 7, 'i': 8,
		'a': 10, 'b': 10, 'c': 10, 257: 11, 265: 12, 258: 13, 285: 14, 284: 15, 'z': 15} {
		lit[sym] = n
	}
	dist := make([]uint, 30)
	for sym := 0; sym < 14; sym++ {
		dist[sym] = uint(sym) + 1
	}
	dist[28], dist[29] = 15, 15

	var out []budgetStream
	build := func(name, seq string) {
		w, lc, dc := dynamicBlock(lit, dist)
		data := bytes.Clone(hist)
		for _, c := range []byte(seq) {
			if c != '*' {
				w.code(lc[c])
				data = append(data, c)
				continue
			}
			w.code(lc[284]).bits(30, 5).code(dc[28]).bits(8191, 13) // length 257, distance 24576
			for i := 0; i < 257; i++ {
				data = append(data, data[len(data)-24576])
			}
		}
		w.code(lc[256])
		out = append(out, budgetStream{name, append(bytes.Clone(stored.out), w.out...), data, len(stored.out)})
	}
	for k := 0; k <= 5; k++ {
		build(fmt.Sprintf("%d ten-bit literals, a subtable length with 5 extra bits, a subtable distance with 13", k), "abcab"[:k]+"*q")
	}
	for k := 0; k <= 3; k++ {
		build(fmt.Sprintf("%d ten-bit literals, then a subtable literal", k), "abc"[:k]+"zab")
	}
	build("end of block right after a match", "ab*")
	build("two matches, then end of block", "a**")
	return out
}

// TestInflateTrailingBytes: what follows the final block is the caller's. It
// is never decoded as data, and a source the decoder has read ahead of still
// accounts for every byte (the store hashes the source, then drains it).
func TestInflateTrailingBytes(t *testing.T) {
	data := shapes(5000)[4].data
	stream := append(deflate(t, data, 6, 1), "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7"...)
	agree(t, "nine trailing bytes", stream)
	src := bytes.NewReader(stream)
	r := newReader(src)
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decoded %d bytes, err %v; want %d", len(got), err, len(data))
	}
	if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read past the end: %d, %v", n, err)
	}
	rest, _ := io.ReadAll(src)
	if read := len(stream) - len(rest); read < len(stream)-9 || read > len(stream) {
		t.Fatalf("decoder took %d of %d source bytes", read, len(stream))
	}
}

// TestInflateCloseTwice: the pool hands out decoder states, never handles.
// A second Close on a handle must not put a state back that another handle
// has been given since, or two streams would decode through one window.
func TestInflateCloseTwice(t *testing.T) {
	corpus := shapes(100 << 10)
	textStream, noiseStream := deflate(t, corpus[4].data, 1, 1), deflate(t, corpus[7].data, 1, 1)

	a := newReader(bytes.NewReader(textStream))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if n, err := a.Read(make([]byte, 8)); n != 0 || err != ErrClosed {
		t.Fatalf("Read after Close: %d, %v; want ErrClosed", n, err)
	}

	// b most likely holds the state a released. Closing a again while b is
	// mid-stream, then opening c, must leave b and c on different states.
	b := newReader(bytes.NewReader(textStream))
	head := make([]byte, 1000)
	if _, err := io.ReadFull(b, head); err != nil {
		t.Fatal(err)
	}
	a.Close()
	c := newReader(bytes.NewReader(noiseStream))
	if b.s == c.s {
		t.Fatal("two open readers share one decoder state")
	}
	gotC, errC := io.ReadAll(c)
	rest, errB := io.ReadAll(b)
	if errB != nil || !bytes.Equal(append(head, rest...), corpus[4].data) {
		t.Fatalf("reader b: err %v, output differs from its stream's data", errB)
	}
	if errC != nil || !bytes.Equal(gotC, corpus[7].data) {
		t.Fatalf("reader c: err %v, output differs from its stream's data", errC)
	}
	b.Close()
	c.Close()

	// Reset reopens a closed reader.
	a.Reset(bytes.NewReader(textStream))
	if got, err := io.ReadAll(a); err != nil || !bytes.Equal(got, corpus[4].data) {
		t.Fatalf("after Reset: err %v", err)
	}
	a.Close()
}

// TestInflateSteadyState: an open stream is bounded by the state's fixed
// size, and reusing a reader for a small stream allocates nothing.
func TestInflateSteadyState(t *testing.T) {
	if size := reflect.TypeOf(state{}).Size(); size > 256<<10 {
		t.Errorf("decoder state is %d bytes, over the 256 KiB budget", size)
	}
	data := shapes(2000)[4].data
	stream := deflate(t, data, shardLevel, 1)
	src := bytes.NewReader(nil)
	r := newReader(src)
	defer r.Close()
	buf := make([]byte, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		r.Reset(src)
		if n := drain(t, r, buf, len(buf)); n != len(data) {
			t.Fatalf("decoded %d bytes, want %d", n, len(data))
		}
	})
	if allocs != 0 {
		t.Errorf("Reset + decode of a %d-byte stream allocates %.0f times, want 0", len(stream), allocs)
	}
}

// failingReader yields its bytes, then an error that is not io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestInflateSourceErrors: the source's own failure is reported as itself,
// not as truncation, and a source that stalls is not spun on forever.
func TestInflateSourceErrors(t *testing.T) {
	data := shapes(20 << 10)[5].data
	stream := deflate(t, data, 6, 1)
	boom := errors.New("boom")
	got, err := io.ReadAll(newReader(&failingReader{stream[:len(stream)/2], boom}))
	if err != boom || !bytes.HasPrefix(data, got) {
		t.Errorf("failing source: %d bytes, err %v; want a prefix and %v", len(got), err, boom)
	}
	got, err = io.ReadAll(newReader(&failingReader{stream[:len(stream)/2], nil}))
	if err != io.ErrNoProgress || !bytes.HasPrefix(data, got) {
		t.Errorf("stalled source: %d bytes, err %v; want a prefix and io.ErrNoProgress", len(got), err)
	}
}

// buildTableStrided is the table builder this package had before it built
// by doubling, kept as the reference TestBuildTableMatchesReference holds
// buildTable to: every code of at most root bits is written at each primary
// index its bits match, a stride apart. It emits the same entry format.
func buildTableStrided(t []uint32, root uint, lens []uint8, syms []uint32) bool {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	left := 1 // unassigned code space at the current length
	for l := 1; l <= 15; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return false
		}
	}
	if left > 0 {
		if used := len(lens) - count[0]; used > 1 || used != count[1] {
			return false
		}
		for i := range t[:1<<root] {
			t[i] = flagBad
		}
	}

	// Symbols in canonical order: by length, then by value.
	var offs [16]int
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [maxLit]uint16
	for sym, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(sym)
			offs[l]++
		}
	}

	end := 1 << root // next free subtable slot
	subPrefix, subStart, subBits := -1, 0, uint(0)
	code, i := 0, 0
	for l := uint(1); l <= 15; l++ {
		for n := count[l]; n > 0; n-- {
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l)) // codes are sent LSB first
			code++
			e := syms[sorted[i]]
			i++
			if l <= root {
				for j := rev; j < 1<<root; j += 1 << l {
					t[j] = e + uint32(l)*0x101
				}
				continue
			}
			if prefix := rev & (1<<root - 1); prefix != subPrefix {
				subPrefix, subStart, subBits = prefix, end, l-root
				for used := n; used < 1<<subBits && root+subBits < 15; {
					subBits++
					used = used<<1 + count[root+subBits]
				}
				if end += 1 << subBits; end > len(t) {
					return false
				}
				t[prefix] = flagSub | uint32(subStart)<<16 | uint32(subBits)<<8 | uint32(root)
			}
			for j := rev >> root; j < 1<<subBits; j += 1 << (l - root) {
				t[subStart+j] = e + uint32(l-root)*0x101
			}
		}
		code <<= 1
	}
	return true
}

// randomLengths returns a complete set of code lengths (1 to 15 bits) over
// n symbols, at least two of them used: a tree grown by splitting leaves,
// each split taking the newest leaf with probability deep (so deep sets run
// to 15 bits) and a random one otherwise, its leaves dealt to random
// symbols.
func randomLengths(rng *rand.Rand, n int) []uint8 {
	used, deep := 2+rng.Intn(n-1), rng.Float64()
	leaves := []uint8{0}
	for len(leaves) < used {
		i := rng.Intn(len(leaves))
		if rng.Float64() < deep {
			i = len(leaves) - 1
		}
		for leaves[i] == 15 { // a full-depth leaf cannot split; there is always another
			i = (i + 1) % len(leaves)
		}
		leaves[i]++
		leaves = append(leaves, leaves[i])
	}
	lens := make([]uint8, n)
	for j, sym := range rng.Perm(n)[:used] {
		lens[sym] = leaves[j]
	}
	return lens
}

// dynamicHeaders returns the literal/length and distance code lengths of
// every dynamic block in stream, read by stepping a decoder state through it
// as Read does.
func dynamicHeaders(stream []byte) [][2][]uint8 {
	var sets [][2][]uint8
	s := new(state)
	s.reset(bytes.NewReader(stream))
	for s.err == nil {
		if s.wp >= winStop {
			copy(s.win[:histSize], s.win[s.wp-histSize:s.wp])
			s.wp = histSize
		}
		switch {
		case s.stored > 0:
			s.wp = s.copyStored(&s.win, s.wp)
		case s.huff:
			s.wp = s.huffman(&s.win, s.wp, winStop)
		default:
			// BFINAL, BTYPE, HLIT, HDIST: peeked before the header reads them.
			peeked := s.need(13)
			nlit, ndist := 257+int(s.bb>>3&31), 1+int(s.bb>>8&31)
			s.blockHeader()
			if peeked && s.err == nil && s.lt == &s.lit {
				lens := bytes.Clone(s.lens[:nlit+ndist])
				sets = append(sets, [2][]uint8{lens[:nlit], lens[nlit:]})
			}
		}
	}
	return sets
}

// TestBuildTableMatchesReference: the doubling builder and the strided one
// it replaced agree on the verdict and on every primary and subtable entry
// (tables start from the same stale contents, as a pooled state's do) over
// the fixed codes, every dynamic header in the corpus streams, 10^4 random
// complete literal/length and distance sets and 10^3 code-length code sets,
// and both incomplete sets RFC 1951 allows.
func TestBuildTableMatchesReference(t *testing.T) {
	var got, want [litTable]uint32
	check := func(label string, root uint, size int, lens []uint8, syms []uint32) {
		t.Helper()
		for i := range got {
			got[i] = uint32(i) * 0x9e3779b9
		}
		want = got
		okGot, okWant := buildTable(got[:size], root, lens, syms), buildTableStrided(want[:size], root, lens, syms)
		if okGot != okWant {
			t.Fatalf("%s: buildTable %v, reference %v", label, okGot, okWant)
		}
		if !okGot {
			return
		}
		for i := range got[:size] {
			if got[i] != want[i] {
				t.Fatalf("%s (lengths %v): entry %d is %#x, reference %#x", label, lens, i, got[i], want[i])
			}
		}
	}
	lit := func(label string, lens []uint8) { check(label, litBits, litTable, lens, litSyms[:]) }
	dist := func(label string, lens []uint8) { check(label, distBits, distTable, lens, distSyms[:]) }

	fixed := make([]uint8, maxLit)
	for i := range fixed { // RFC 1951 3.2.6
		switch {
		case i < 144, i >= 280:
			fixed[i] = 8
		case i < 256:
			fixed[i] = 9
		default:
			fixed[i] = 7
		}
	}
	lit("fixed literal/length code", fixed)
	dist("fixed distance code", bytes.Repeat([]uint8{5}, maxDist))

	headers := 0
	var streams [][]byte
	for _, sh := range shapes(64 << 10) {
		for _, level := range levels {
			for _, writes := range []int{1, 5} {
				streams = append(streams, deflate(t, sh.data, level, writes))
			}
		}
	}
	for _, st := range benchStreams(t) {
		streams = append(streams, deflate(t, st.data, shardLevel, 1))
	}
	for i, stream := range streams {
		for j, set := range dynamicHeaders(stream) {
			lit(fmt.Sprintf("stream %d header %d literal/length", i, j), set[0])
			dist(fmt.Sprintf("stream %d header %d distance", i, j), set[1])
			headers++
		}
	}
	if headers < 100 {
		t.Fatalf("only %d dynamic headers in the corpus", headers)
	}

	rng := rand.New(rand.NewSource(6))
	deepLit, deepDist := 0, 0
	for i := 0; i < 10000; i++ {
		l, d := randomLengths(rng, 257+rng.Intn(30)), randomLengths(rng, 2+rng.Intn(29))
		lit(fmt.Sprintf("random set %d literal/length", i), l)
		dist(fmt.Sprintf("random set %d distance", i), d)
		if slices.Max(l) > litBits {
			deepLit++
		}
		if slices.Max(d) > distBits {
			deepDist++
		}
	}
	for i := 0; i < 1000; i++ {
		lens := randomLengths(rng, 19)
		for slices.Max(lens) > preBits {
			lens = randomLengths(rng, 19)
		}
		check(fmt.Sprintf("random code-length code %d", i), preBits, 1<<preBits, lens, preSyms[:])
	}
	t.Logf("%d corpus headers; %d random literal/length and %d distance sets with subtables", headers, deepLit, deepDist)
	if deepLit < 1000 || deepDist < 1000 {
		t.Fatalf("too few random sets reach the subtables")
	}

	one := make([]uint8, 30)
	one[rng.Intn(30)] = 1
	dist("no distance codes", make([]uint8, 30))
	dist("one one-bit distance code", one)
	lit("no literal/length codes", make([]uint8, 286))
	lit("one one-bit literal/length code", append(make([]uint8, 285), 1))
}
