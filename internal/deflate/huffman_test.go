package deflate

import (
	"slices"
	"testing"
)

// keysOf packs freq, in symbol order, into generate's keys, dropping zeros.
func keysOf(freq []int32) []uint32 {
	var keys []uint32
	for i, f := range freq {
		if f != 0 {
			keys = append(keys, uint32(f)<<16|uint32(i))
		}
	}
	return keys
}

// trimmed drops a count list's trailing zeros: bitCounts' list runs to its
// limit, huffmanCounts' to its deepest leaf, and the codes do not see the
// difference.
func trimmed(counts []int32) []int32 {
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return counts
}

// huffmanAgrees holds huffmanCounts to bitCounts for sorted keys (at least
// three) and maxBits: where the two-queue tree fits under the limit, its
// counts are bitCounts'. It reports whether the fast path answered.
func huffmanAgrees(t *testing.T, w *Writer, keys []uint32, maxBits int32) bool {
	t.Helper()
	fast, ok := w.huffmanCounts(keys, maxBits)
	if !ok {
		return false
	}
	fast = slices.Clone(trimmed(fast))
	if want := trimmed(w.bitCounts(keys, maxBits)); !slices.Equal(fast, want) {
		freq := make([]int32, len(keys))
		for i, k := range keys {
			freq[i] = int32(k >> 16)
		}
		t.Fatalf("frequencies %v, maxBits %d: huffmanCounts %v, bitCounts %v", freq, maxBits, fast, want)
	}
	return true
}

// TestHuffmanCountsExhaustive: every nondecreasing frequency vector of 3–9
// symbols with frequencies 1–9, and of 10–13 symbols with frequencies 1–5,
// under every limit generate uses and three tighter ones. Where the fast
// path answers, its counts are bitCounts'; under the 15-bit limit, which no
// tree of 13 leaves can reach, it always answers.
func TestHuffmanCountsExhaustive(t *testing.T) {
	w := NewWriter(nil)
	limits := []int32{3, 4, 5, 7, 15}
	cases, fallbacks := 0, 0
	freq := make([]int32, 13)
	var walk func(n, i int, lo, hi int32)
	walk = func(n, i int, lo, hi int32) {
		if i == n {
			keys := keysOf(freq[:n])
			for _, maxBits := range limits {
				cases++
				if !huffmanAgrees(t, w, keys, maxBits) {
					fallbacks++
					if maxBits == 15 {
						t.Fatalf("frequencies %v: no 15-bit answer from the fast path", freq[:n])
					}
				}
			}
			return
		}
		for f := lo; f <= hi; f++ {
			freq[i] = f
			walk(n, i+1, f, hi)
		}
	}
	for n := 3; n <= 13; n++ {
		hi := int32(9)
		if n >= 10 {
			hi = 5
		}
		walk(n, 0, 1, hi)
	}
	t.Logf("%d cases, %d left to bitCounts", cases, fallbacks)
}

// FuzzHuffmanCounts: up to 286 symbols, one a byte, with frequencies from 1
// to past 2^15 so the 15-bit limit can bind. sortKeys orders the keys as a
// full-key sort does, and under each limit the alphabet fits, the fast
// path's counts are bitCounts' wherever it answers.
func FuzzHuffmanCounts(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte("the collective clock drains every group"))
	fib := []byte{0x10, 0x10, 0x20, 0x30, 0x40, 0x51, 0x63, 0x75, 0x80, 0x95, 0xa9, 0xb9, 0xca, 0xda, 0xeb, 0xfb, 0xff, 0xff}
	f.Add(fib)
	w := NewWriter(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > numLit {
			data = data[:numLit]
		}
		freq := make([]int32, len(data))
		for i, b := range data {
			freq[i] = 1<<(b>>4) + int32(b&15) // 1 to 32 783
		}
		keys := keysOf(freq)
		if len(keys) < 3 {
			return
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		got := w.sortKeys(slices.Clone(keys))
		if !slices.Equal(got, want) {
			t.Fatalf("sortKeys(%v) = %v, want %v", keys, got, want)
		}
		for _, maxBits := range []int32{3, 4, 5, 7, 15} {
			if len(keys) <= 1<<maxBits {
				huffmanAgrees(t, w, got, maxBits)
			}
		}
	})
}

// TestSortKeysHighByte: frequencies either side of 255 and 256 take the
// second radix pass, and the order is still that of a full-key sort.
func TestSortKeysHighByte(t *testing.T) {
	w := NewWriter(nil)
	for _, freq := range [][]int32{
		{256, 255, 1, 256, 255, 0, 65535, 257, 1},
		{300, 44, 300, 44, 512, 3},
	} {
		keys := keysOf(freq)
		want := slices.Clone(keys)
		slices.Sort(want)
		if got := w.sortKeys(keys); !slices.Equal(got, want) {
			t.Errorf("frequencies %v: sortKeys gives %v, want %v", freq, got, want)
		}
	}
}
