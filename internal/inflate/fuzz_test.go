package inflate

import (
	"bytes"
	"compress/flate"
	"io"
	"runtime"
	"testing"
)

// fuzzOutCap bounds how much of a stream's output both decoders are asked
// for: a few hundred input bytes can declare gigabytes of zeros.
const fuzzOutCap = 1 << 20

// readCapped fills out from r, reporting how much arrived and the error that
// stopped it: nil at the end of the stream or at the cap.
func readCapped(r io.Reader, out []byte) (int, error) {
	n := 0
	for n < len(out) {
		m, err := r.Read(out[n:])
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

// FuzzInflateAgree: arbitrary bytes as a DEFLATE stream. This decoder and
// compress/flate both fail or both succeed with equal output, and an open
// stream allocates no more than its fixed state however the bytes lie.
func FuzzInflateAgree(f *testing.F) {
	for _, sh := range shapes(3000) {
		for _, level := range levels {
			stream := deflate(f, sh.data, level, 2)
			f.Add(stream)
			f.Add(stream[:len(stream)*2/3])
			if len(stream) > 8 {
				flipped := bytes.Clone(stream)
				flipped[len(flipped)/3] ^= 0x10
				f.Add(flipped)
			}
		}
	}
	f.Add([]byte{0x07})                              // reserved block type
	f.Add([]byte{0x01, 0x03, 0x00, 0xfc, 0xfe, 'a'}) // stored: LEN/NLEN mismatch
	f.Add([]byte{0x03, 0x00})                        // fixed block: end of block only
	f.Add([]byte{0x4b, 0x04, 0x02, 0x00})            // fixed block: "a", match, end
	f.Add([]byte{0x4b, 0x04, 0x42, 0x00})            // ... distance before the start
	for _, b := range budgetStreams() {              // the fast loop's worst cases
		f.Add(b.stream)
	}

	want, got := make([]byte, fuzzOutCap), make([]byte, fuzzOutCap)
	f.Fuzz(func(t *testing.T, stream []byte) {
		wantN, wantErr := readCapped(flate.NewReader(bytes.NewReader(stream)), want)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := newReader(bytes.NewReader(stream))
		gotN, err := readCapped(r, got)
		r.Close()
		runtime.ReadMemStats(&after)

		if (err != nil) != (wantErr != nil) {
			t.Fatalf("err %v after %d bytes, reference %v after %d", err, gotN, wantErr, wantN)
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
