package inflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"runtime"
	"testing"
)

// fuzzOutCap bounds how much of a stream's output both decoders are asked
// for: a few hundred input bytes can declare gigabytes of zeros.
const fuzzOutCap = 1 << 20

// readCapped fills out from r in reads of at most step bytes, reporting how
// much arrived and the error that stopped it: nil at the end of the stream
// or at the cap. Each read's capacity ends where its length does, so a
// write past len(p) panics.
func readCapped(r io.Reader, out []byte, step int) (int, error) {
	n := 0
	for n < len(out) {
		end := min(n+step, len(out))
		m, err := r.Read(out[n:end:end])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// fuzzStep maps the fuzzer's read size to a Read length: 0, and anything
// past the cap, is one read of the whole cap.
func fuzzStep(size uint32) int {
	if size == 0 || size > fuzzOutCap {
		return fuzzOutCap
	}
	return int(size)
}

// FuzzInflateAgree: arbitrary bytes as a DEFLATE stream, read in reads of an
// arbitrary size: through the window, straight into the destination
// (directMin bytes or more), or mixed, with matches straddling a direct
// read's start. This decoder and compress/flate both fail or both succeed
// with equal output; a failure is truncation or ErrCorrupt; no Read writes
// past its destination; and an open stream allocates no more than its fixed
// state however the bytes lie.
func FuzzInflateAgree(f *testing.F) {
	sizes := []uint32{0, 1, 4096, directMin - 1, directMin, directMin + maxMatch/2, 64<<10 + 3}
	seeds := 0
	add := func(stream []byte) {
		f.Add(stream, sizes[seeds%len(sizes)])
		seeds++
	}
	for _, sh := range shapes(3000) {
		for _, level := range levels {
			stream := deflate(f, sh.data, level, 2)
			add(stream)
			add(stream[:len(stream)*2/3])
			if len(stream) > 8 {
				flipped := bytes.Clone(stream)
				flipped[len(flipped)/3] ^= 0x10
				add(flipped)
			}
		}
	}
	for _, sh := range shapes(100 << 10)[3:] { // past directMin: direct reads over several windows
		for _, size := range sizes {
			f.Add(deflate(f, sh.data, 6, 2), size)
		}
	}
	add([]byte{0x07})                              // reserved block type
	add([]byte{0x01, 0x03, 0x00, 0xfc, 0xfe, 'a'}) // stored: LEN/NLEN mismatch
	add([]byte{0x03, 0x00})                        // fixed block: end of block only
	add([]byte{0x4b, 0x04, 0x02, 0x00})            // fixed block: "a", match, end
	add([]byte{0x4b, 0x04, 0x42, 0x00})            // ... distance before the start
	for _, b := range budgetStreams() {            // the fast loop's worst cases
		add(b.stream)
	}

	want, got := make([]byte, fuzzOutCap), make([]byte, fuzzOutCap)
	f.Fuzz(func(t *testing.T, stream []byte, size uint32) {
		wantN, wantErr := readCapped(flate.NewReader(bytes.NewReader(stream)), want, fuzzOutCap)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := newReader(bytes.NewReader(stream))
		gotN, err := readCapped(r, got, fuzzStep(size))
		r.Close()
		runtime.ReadMemStats(&after)

		if (err != nil) != (wantErr != nil) {
			t.Fatalf("err %v after %d bytes, reference %v after %d", err, gotN, wantErr, wantN)
		}
		if err != nil && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err %v is neither truncation nor ErrCorrupt", err)
		}
		if err == nil && (gotN != wantN || !bytes.Equal(got[:gotN], want[:wantN])) {
			t.Fatalf("decoded %d bytes, reference %d, and they differ", gotN, wantN)
		}
		// One decoder state if the pool was empty, a handle and the source.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(stream), alloc)
		}
	})
}
