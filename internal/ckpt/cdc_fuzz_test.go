package ckpt

// FuzzChunkerStability: the content-defined chunker's whole point is that an
// arbitrary insertion or deletion only disturbs chunks near the edit. The
// target checks the invariants that make dedup work on every input:
//
//   - the chunk table tiles the stream exactly and every per-chunk CRC-32C /
//     XXH64 identity matches the bytes it covers (so concatenating the chunks
//     reproduces the stream byte-identically);
//   - size bounds hold (interior chunks in [min, max], all chunks <= max);
//   - the table equals the one a reference walk that rolls the gear hash
//     over every byte produces, however the stream is split into writes
//     (the chunker skips each chunk's prefix below the floor);
//   - handed the table from before the edit to predict from, the chunker
//     emits that same reference table and stream sum; handed that table with
//     its entries perturbed, it still tiles the stream exactly with in-bounds
//     chunks whose identities recompute, and the stream sum does not move (a
//     forged hint may cost dedup, never a byte);
//   - chunks wholly before the edit are byte-for-byte unchanged (cut
//     decisions up to the edit see only shared bytes);
//   - after the edit the two walks provably resynchronize: if the shared
//     suffix contains consecutive gear candidates c1 < c2 (at least one
//     64-byte window past the edit) whose gap lies in (min, max-min], every
//     greedy min/max walk must cut exactly at c2 — so both streams share
//     that boundary and every chunk after it is identical.
//
// The last property is the precise realignment guarantee: "within one chunk
// of the edit" is not universally true (a long candidate desert after the
// edit can keep forcing max-size cuts out of phase), but whenever such a
// candidate pair exists the walks MUST converge there, and the fuzzer
// asserts exactly that.

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
)

// chunkTable runs the streaming chunker over data and returns its table.
func chunkTable(data []byte) []RawChunk { return chunkTableSplit(data, nil) }

// chunkTableSplit runs the streaming chunker over data cut into writes at
// the given ascending offsets (those past the end are ignored).
func chunkTableSplit(data []byte, at []int) []RawChunk {
	return chunkHinted(data, at, nil).chunks
}

// chunkHinted is chunkTableSplit with a parent table for the chunker to
// predict from. It returns the finished summer: its table, stream sum and
// prediction counts.
func chunkHinted(data []byte, at []int, hint []ChunkRef) *chunkSummer {
	cs := newChunkSummer(hint)
	prev := 0
	for _, off := range at {
		if off < prev || off > len(data) {
			continue
		}
		cs.Write(data[prev:off])
		prev = off
	}
	cs.Write(data[prev:])
	cs.finish()
	return cs
}

// hintOf is the chunk table of data as a manifest would carry it.
func hintOf(data []byte) []ChunkRef { return selfChunkRefs(chunkTable(data), 0, 0) }

// randomSplits draws ascending write boundaries over n bytes: mostly short
// writes (several inside every 64-byte warm-up window) with the odd long one.
func randomSplits(rng *rand.Rand, n int) []int {
	var at []int
	for off := 0; off < n; {
		step := 1 + rng.Intn(90)
		if rng.Intn(3) == 0 {
			step = 1 + rng.Intn(3*CDCMinChunkBytes)
		}
		off += step
		at = append(at, off)
	}
	return at
}

// refChunkTable is the chunker without the prefix skip: one pass over the
// whole of data, the gear hash rolled over every byte and never restarted.
func refChunkTable(data []byte) []RawChunk {
	var out []RawChunk
	var g uint64
	start := 0
	seal := func(end int) {
		span := data[start:end]
		out = append(out, RawChunk{Len: int64(len(span)), CRC: crc32.Checksum(span, crcTable), Sum: checksumOf(span)})
		start = end
	}
	for i, b := range data {
		g = g<<1 + gearTable[b]
		if n := i + 1 - start; (n >= CDCMinChunkBytes && g&cdcBoundaryMask == 0) || n >= CDCMaxChunkBytes {
			seal(i + 1)
		}
	}
	if start < len(data) {
		seal(len(data))
	}
	return out
}

// checkTableTiles fails unless the table tiles data exactly with in-bounds
// chunks whose recorded identities match a recomputation from the bytes.
func checkTableTiles(t *testing.T, data []byte, chunks []RawChunk) []int64 {
	t.Helper()
	var off int64
	bounds := make([]int64, 0, len(chunks))
	for k, c := range chunks {
		if c.Len < 1 || c.Len > CDCMaxChunkBytes {
			t.Fatalf("chunk %d length %d out of [1, %d]", k, c.Len, CDCMaxChunkBytes)
		}
		if c.Len < CDCMinChunkBytes && k != len(chunks)-1 {
			t.Fatalf("interior chunk %d under the %d-byte minimum: %d", k, CDCMinChunkBytes, c.Len)
		}
		if off+c.Len > int64(len(data)) {
			t.Fatalf("chunk %d overruns the stream: %d+%d > %d", k, off, c.Len, len(data))
		}
		span := data[off : off+c.Len]
		if got := crc32.Checksum(span, crcTable); got != c.CRC {
			t.Fatalf("chunk %d crc %08x, table says %08x", k, got, c.CRC)
		}
		if got := checksumOf(span); got != c.Sum {
			t.Fatalf("chunk %d sum %x, table says %x", k, got, c.Sum)
		}
		off += c.Len
		bounds = append(bounds, off)
	}
	if off != int64(len(data)) {
		t.Fatalf("chunk table covers %d of %d bytes", off, len(data))
	}
	return bounds
}

func FuzzChunkerStability(f *testing.F) {
	f.Add(noisyBytes(200<<10, 3), uint(70<<10), uint8(0), []byte("spliced run"))
	f.Add(noisyBytes(300<<10, 9), uint(128<<10), uint8(200), []byte{})
	f.Add(noisyBytes(96<<10, 21), uint(5), uint8(17), noisyBytes(900, 4))
	f.Add(bytes.Repeat([]byte{0xAB}, 300<<10), uint(150<<10), uint8(1), []byte{0, 1, 2})
	f.Add([]byte{}, uint(0), uint8(0), []byte("from nothing"))

	f.Fuzz(func(t *testing.T, data []byte, pos uint, del uint8, ins []byte) {
		if len(data) > 1<<20 || len(ins) > 8<<10 {
			t.Skip("capped: chunk-scale behavior is fully exercised within 1 MiB")
		}
		p := int(pos % uint(len(data)+1))
		dn := int(del)
		if p+dn > len(data) {
			dn = len(data) - p
		}
		edited := make([]byte, 0, len(data)+len(ins))
		edited = append(edited, data[:p]...)
		edited = append(edited, ins...)
		edited = append(edited, data[p+dn:]...)

		ca, cb := chunkTable(data), chunkTable(edited)
		if ref := refChunkTable(data); !slices.Equal(ca, ref) {
			t.Fatalf("skipping chunker and reference walk disagree:\n%+v\n%+v", ca, ref)
		}
		at := randomSplits(rand.New(rand.NewSource(int64(pos)^int64(len(ins)))), len(edited))
		if split, ref := chunkTableSplit(edited, at), refChunkTable(edited); !slices.Equal(split, ref) || !slices.Equal(cb, ref) {
			t.Fatalf("skipping chunker (one write, then writes cut at %v) and reference walk disagree:\n%+v\n%+v\n%+v", at, cb, split, ref)
		}
		ba := checkTableTiles(t, data, ca)
		bb := checkTableTiles(t, edited, cb)

		// Predicting from the table before the edit changes nothing: the
		// hinted pass emits the reference walk's table and stream sum.
		ref, refSum := refChunkTable(edited), checksumOf(edited)
		hint := selfChunkRefs(ca, 0, 0)
		for _, at := range [][]int{nil, at} {
			if cs := chunkHinted(edited, at, hint); !slices.Equal(cs.chunks, ref) || cs.raw.sum64() != refSum {
				t.Fatalf("hinted by the table before the edit (writes cut at %v), sum %x:\n%+v\nreference walk, sum %x:\n%+v", at, cs.raw.sum64(), cs.chunks, refSum, ref)
			}
		}
		// A forged hint may cost dedup — a cut the walk would not make — but
		// never a byte: the table still tiles the stream exactly, in bounds,
		// every identity recomputes, and the stream sum is unmoved.
		var off int64 // where hint[k]'s chunk starts, in both streams up to the edit
		for k := range hint {
			b := ins[k%max(len(ins), 1):]
			if len(b) == 0 {
				b = []byte{del}
			}
			end := off + CDCMaxChunkBytes
			off += hint[k].Len
			switch c := &hint[k]; b[0] % 6 {
			case 0:
				c.Len += int64(int8(b[len(b)-1]))
			case 1:
				c.Len, c.CRC, c.Sum = int64(b[len(b)-1])<<9, hint[(k+1)%len(hint)].CRC, hint[(k+1)%len(hint)].Sum
			case 2:
				hint[k] = hint[int(b[len(b)-1])%len(hint)]
			case 3:
				c.CRC ^= uint32(b[len(b)-1])
			case 4:
				// The true identity of a ceiling-length span from this chunk's
				// start: every proof holds, though the walk may cut sooner.
				if span := edited[min(end-CDCMaxChunkBytes, int64(len(edited))):min(end, int64(len(edited)))]; len(span) == CDCMaxChunkBytes {
					c.Len, c.CRC, c.Sum = CDCMaxChunkBytes, crc32.Checksum(span, crcTable), checksumOf(span)
				}
			}
		}
		for _, at := range [][]int{nil, at} {
			cs := chunkHinted(edited, at, hint)
			checkTableTiles(t, edited, cs.chunks)
			if cs.raw.sum64() != refSum {
				t.Fatalf("forged hint moved the stream sum: %x, want %x", cs.raw.sum64(), refSum)
			}
		}

		// Chunks wholly before the edit are identical: both walks consumed
		// only shared bytes to produce them.
		for k := 0; k < len(ca) && k < len(cb); k++ {
			if ba[k] > int64(p) || bb[k] > int64(p) {
				break
			}
			if ca[k] != cb[k] {
				t.Fatalf("pre-edit chunk %d changed: %+v -> %+v (edit at %d)", k, ca[k], cb[k], p)
			}
		}

		// Resynchronization. Positions >= editEnd+64 in the edited stream
		// share their whole gear window with the original (shifted), so
		// candidates there correspond 1:1. Find the first consecutive pair
		// whose gap guarantees a shared cut and demand both walks took it.
		shift := int64(len(ins) - dn)
		editEnd := int64(p + len(ins))
		sync := int64(-1)
		cand := gearCandidates(edited)
		for i := 1; i < len(cand); i++ {
			gap := cand[i] - cand[i-1]
			if cand[i-1] >= editEnd+64 && gap > CDCMinChunkBytes && gap <= CDCMaxChunkBytes-CDCMinChunkBytes {
				sync = cand[i]
				break
			}
		}
		if sync < 0 {
			return // no provable pair in the suffix; nothing to assert
		}
		if !hasBoundary(bb, sync) {
			t.Fatalf("edited walk skipped the forced shared cut at %d", sync)
		}
		if !hasBoundary(ba, sync-shift) {
			t.Fatalf("original walk skipped the forced shared cut at %d (=%d-%d)", sync-shift, sync, shift)
		}
		// From a shared cut with a shared 64-byte window, both walks are in
		// identical state: every later chunk must match exactly.
		ta := ca[boundaryIndex(ba, sync-shift)+1:]
		tb := cb[boundaryIndex(bb, sync)+1:]
		if len(ta) != len(tb) {
			t.Fatalf("post-sync chunk counts diverge: %d vs %d", len(ta), len(tb))
		}
		for k := range ta {
			if ta[k] != tb[k] {
				t.Fatalf("post-sync chunk %d diverges: %+v vs %+v", k, ta[k], tb[k])
			}
		}
	})
}

// hasBoundary reports whether off is one of the walk's cut offsets (bounds
// is ascending cumulative chunk ends).
func hasBoundary(bounds []int64, off int64) bool { return boundaryIndex(bounds, off) >= 0 }

func boundaryIndex(bounds []int64, off int64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case bounds[mid] == off:
			return mid
		case bounds[mid] < off:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}
