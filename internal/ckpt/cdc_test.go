package ckpt

// Tests for raw format 3 (content-defined chunks): chunk-table invariants,
// commit-time dedup against the chain's chunk index (including across an
// insertion shift and across ranks), codec selection, and GC/compaction
// round trips. Corruption attribution is in partial_test.go, shared with
// raw format 2.

import (
	"bytes"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// gearCandidates returns every boundary-candidate offset of data (cut-after
// positions where the rolling hash's masked bits vanish), ignoring the
// min/max walk. The fuzz target reasons about realignment directly on this
// signal.
func gearCandidates(data []byte) []int64 {
	var out []int64
	var g uint64
	for i, b := range data {
		g = g<<1 + gearTable[b]
		if g&cdcBoundaryMask == 0 {
			out = append(out, int64(i)+1)
		}
	}
	return out
}

// noisyBytes fills n bytes from a xorshift64 stream: content-rich data with
// plenty of gear cut candidates (a periodic fill would starve the chunker).
func noisyBytes(n int, seed uint64) []byte {
	b := make([]byte, n)
	s := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte(s)
	}
	return b
}

// cdcImage builds an n-rank image whose per-rank app state spans many target
// chunks of pseudo-random content.
func cdcImage(n int, seed uint64) *JobImage {
	ji := &JobImage{Algorithm: "cc", Ranks: n, PPN: 2, CaptureVT: 1.5, Images: make([]RankImage, n)}
	for r := 0; r < n; r++ {
		ji.Images[r] = RankImage{
			Rank:    r,
			Desc:    Descriptor{Kind: ParkPreCollective, Coll: &CollDesc{Kind: 1, Bench: true, VirtSize: 8}},
			App:     noisyBytes(1<<20+r*64, seed+uint64(r)*977),
			Proto:   []byte{byte(seed), byte(r)},
			ClockVT: 1.0 + float64(r)/10,
		}
	}
	return ji
}

// commitCDC hashes with a chunk table and commits, the exact sequence the
// coordinator runs with CDC on.
func commitCDC(t testing.TB, store Store, epoch int, parent *Manifest, img *JobImage) (*Manifest, *CommitStats) {
	t.Helper()
	sums, err := HashCaptureCDC(img)
	if err != nil {
		t.Fatal(err)
	}
	man, st, err := CommitStreamed(store, epoch, parent, img, sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	return man, st
}

// insertAt returns b with extra spliced in at off (an insertion edit: every
// later byte shifts).
func insertAt(b []byte, off int, extra []byte) []byte {
	out := make([]byte, 0, len(b)+len(extra))
	out = append(out, b[:off]...)
	out = append(out, extra...)
	return append(out, b[off:]...)
}

// TestChunkTableInvariants: the chunk table produced by the streaming
// chunker covers the raw stream exactly, respects the size bounds, and
// records per-chunk CRC/XXH64 identities that match the bytes.
func TestChunkTableInvariants(t *testing.T) {
	img := cdcImage(1, 7)
	ri := &img.Images[0]
	chunked, err := hashShard(ri, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := hashShard(ri, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	chunks, size := chunked.chunks, chunked.stream.size
	if chunked.sum != plain.sum || size != plain.stream.size {
		t.Fatalf("chunking pass changed the stream identity: %x/%d want %x/%d", chunked.sum, size, plain.sum, plain.stream.size)
	}
	if len(chunks) < 8 {
		t.Fatalf("1 MiB of noise produced only %d chunks", len(chunks))
	}
	var raw bytes.Buffer
	if err := writeShardRaw(&raw, ri, true); err != nil {
		t.Fatal(err)
	}
	stream := raw.Bytes()
	if int64(len(stream)) != size {
		t.Fatalf("raw stream %d bytes, identity says %d", len(stream), size)
	}
	var off int64
	for k, c := range chunks {
		if c.Len < 1 || c.Len > CDCMaxChunkBytes {
			t.Fatalf("chunk %d length %d out of bounds", k, c.Len)
		}
		if c.Len < CDCMinChunkBytes && k != len(chunks)-1 {
			t.Fatalf("interior chunk %d under the minimum: %d", k, c.Len)
		}
		span := stream[off : off+c.Len]
		if got := crc32.Checksum(span, crcTable); got != c.CRC {
			t.Fatalf("chunk %d crc %08x, table says %08x", k, got, c.CRC)
		}
		if h := Sum64(span); h != c.Sum {
			t.Fatalf("chunk %d sum %x, table says %x", k, h, c.Sum)
		}
		off += c.Len
	}
	if off != size {
		t.Fatalf("chunk table covers %d bytes of a %d-byte stream", off, size)
	}
}

// TestGearSkip: the chunker leaves the gear hash alone for each chunk's
// first CDCMinChunkBytes-64 bytes and restarts it from zero there. Every
// input below must come out with the table a walk that rolls over every byte
// produces, through every write split: candidates one byte under, at and one
// byte over the floor, candidate-free runs cut at the ceiling, and writes
// that end inside the skipped prefix and inside the 64-byte warm-up window of
// the first and of a later chunk.
func TestGearSkip(t *testing.T) {
	// window is 64 bytes after which the gear hash is a candidate whatever
	// came before; fill is a byte whose runs never are.
	noise := noisyBytes(1<<20, 5)
	var window []byte
	for _, c := range gearCandidates(noise) {
		if c >= 64 {
			window = noise[c-64 : c]
			break
		}
	}
	if window == nil {
		t.Fatal("1 MiB of noise holds no gear candidate")
	}
	const fill = 0x5a
	if (-gearTable[fill])&cdcBoundaryMask == 0 {
		t.Fatal("a run of the fill byte is itself a candidate")
	}
	// candidatesAt builds n fill bytes with a candidate (cut allowed after)
	// at each of the given offsets.
	candidatesAt := func(n int, offs ...int) []byte {
		b := bytes.Repeat([]byte{fill}, n)
		for _, off := range offs {
			copy(b[off-64:off], window)
		}
		return b
	}
	const floor, ceil = CDCMinChunkBytes, CDCMaxChunkBytes
	for _, tc := range []struct {
		name string
		data []byte
		lens []int64 // leading chunk lengths the input is built to produce
	}{
		{"candidate one under the floor", candidatesAt(floor+100, floor-1), []int64{floor + 100}},
		{"candidate at the floor", candidatesAt(floor+100, floor), []int64{floor, 100}},
		{"candidate one over the floor", candidatesAt(floor+100, floor+1), []int64{floor + 1, 99}},
		{"no candidate", candidatesAt(2*ceil + 9), []int64{ceil, ceil, 9}},
		{"later chunk", candidatesAt(3*floor+500, floor+5, 2*floor+4, 2*floor+75, 3*floor+75),
			[]int64{floor + 5, floor + 70, floor}},
		{"ceiling then floor", candidatesAt(ceil+floor+64, ceil+floor-1, ceil+floor), []int64{ceil, floor, 64}},
		{"noise", noise[:400<<10], nil},
		{"shorter than the skip", noise[:floor-65], []int64{floor - 65}},
		{"empty", nil, nil},
	} {
		ref := refChunkTable(tc.data)
		for k, n := range tc.lens {
			if k >= len(ref) || ref[k].Len != n {
				t.Fatalf("%s: reference chunk %d is %+v, input was built for length %d", tc.name, k, ref, n)
			}
		}
		// Write boundaries around the skip and the warm-up window of the
		// chunk starting at 0 and of the one after the first cut.
		var edges []int
		bases := []int{0}
		if len(tc.lens) > 0 {
			bases = append(bases, int(tc.lens[0]))
		}
		for _, base := range bases {
			for _, d := range []int{1, 100, floor - 65, floor - 64, floor - 63, floor - 32, floor - 1, floor, floor + 1} {
				edges = append(edges, base+d)
			}
		}
		splits := [][]int{nil, edges}
		for _, e := range edges {
			splits = append(splits, []int{e})
		}
		var stride []int
		for off := 61; off < len(tc.data); off += 61 {
			stride = append(stride, off)
		}
		splits = append(splits, stride)
		rng := rand.New(rand.NewSource(int64(len(tc.data))))
		for i := 0; i < 8; i++ {
			splits = append(splits, randomSplits(rng, len(tc.data)))
		}
		for _, at := range splits {
			sort.Ints(at)
			if got := chunkTableSplit(tc.data, at); !slices.Equal(got, ref) {
				t.Fatalf("%s, writes cut at %v:\n got %+v\nwant %+v", tc.name, at, got, ref)
			}
		}
	}
}

// TestCDCCommitRoundTrip: epoch 0 stores full chunked shards carrying
// self-sourced chunk tables under ManifestV5; an insertion-shifted epoch 1
// stores rank 1 as a CDC object whose reused chunks point into epoch 0, and
// everything loads back bit-identically.
func TestCDCCommitRoundTrip(t *testing.T) {
	fs := mustFileStore(t)
	img0 := cdcImage(4, 1)
	man0, st0 := commitCDC(t, fs, 0, nil, img0)
	if man0.Version != ManifestV5 {
		t.Fatalf("cdc commit sealed version %d, want %d", man0.Version, ManifestV5)
	}
	if st0.FreshShards != 4 || st0.CDCShards != 0 {
		t.Fatalf("epoch 0 must be all full shards: %+v", st0)
	}
	for _, si := range man0.Shards {
		if si.RawFormat != RawFormatChunked || len(si.Chunks) == 0 {
			t.Fatalf("rank %d fresh shard carries no chunk table: %+v", si.Rank, si)
		}
		for k, c := range si.Chunks {
			if c.SrcEpoch != 0 || c.SrcRank != si.Rank {
				t.Fatalf("rank %d chunk %d not self-sourced: %+v", si.Rank, k, c)
			}
		}
	}

	// Epoch 1: 64 bytes spliced into the middle of rank 1's bulk state.
	// Every later byte shifts, but content boundaries realign, so all but a
	// couple of chunks dedup against epoch 0.
	img1 := cdcImage(4, 1)
	img1.Images[1].App = insertAt(img1.Images[1].App, len(img1.Images[1].App)/2, noisyBytes(64, 99))
	img1.CaptureVT = 2.5
	man1, st1 := commitCDC(t, fs, 1, man0, img1)
	if st1.FreshShards != 1 || st1.ReusedShards != 3 || st1.CDCShards != 1 {
		t.Fatalf("epoch 1 stats: %+v", st1)
	}
	if st1.CDCBytes != st1.FreshBytes {
		t.Fatalf("the only fresh shard is a cdc object, so cdc bytes %d must equal fresh bytes %d",
			st1.CDCBytes, st1.FreshBytes)
	}
	c1 := shardOf(t, man1, 1)
	if c1.RawFormat != RawFormatCDC || c1.RefEpoch != 1 {
		t.Fatalf("epoch 1 cdc entry: %+v", c1)
	}
	full0 := shardOf(t, man0, 1)
	if c1.Size*4 > full0.Size {
		t.Fatalf("insertion-shifted cdc object %d B not well under a quarter of the full shard %d B", c1.Size, full0.Size)
	}
	var freshChunks, reusedChunks int
	for _, c := range c1.Chunks {
		if c.SrcEpoch == 1 {
			freshChunks++
		} else if c.SrcEpoch == 0 {
			reusedChunks++
		} else {
			t.Fatalf("chunk sourced from unknown epoch: %+v", c)
		}
	}
	if freshChunks == 0 || freshChunks > 4 || reusedChunks < 8 {
		t.Fatalf("insertion dirtied %d chunks and reused %d — realignment failed", freshChunks, reusedChunks)
	}

	got1, err := LoadJobImage(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got1)
	ri, err := ExtractRankFromStore(fs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ri.App, img1.Images[1].App) {
		t.Fatal("single-rank extract through the cdc object diverged")
	}
	// The restart read set must span the chunk sources' epoch.
	sealed1, err := fs.GetManifest(1)
	if err != nil {
		t.Fatal(err)
	}
	reads := ReadSetOf(sealed1)
	if len(reads) != 2 || reads[1].Shards == 0 { // epoch 1 leads; epoch 0 is the other
		t.Fatalf("cdc epoch read set %+v, want epochs [1 0]", reads)
	}
	if faults, err := VerifyStore(fs); err != nil || len(faults) != 0 {
		t.Fatalf("cdc chain did not verify: faults=%v err=%v", faults, err)
	}
}

// TestCDCCrossRankReuse: a rank whose new state duplicates another rank's
// epoch-0 state dedups its chunks against the OTHER rank's stored object.
func TestCDCCrossRankReuse(t *testing.T) {
	fs := mustFileStore(t)
	img0 := cdcImage(4, 5)
	man0, _ := commitCDC(t, fs, 0, nil, img0)

	img1 := cdcImage(4, 5)
	// Rank 2 now holds a copy of rank 1's epoch-0 bulk state (cross-rank
	// duplication: think replicated read-only tables) with its own 64-byte
	// prefix so the shard identity still differs.
	img1.Images[2].App = append(noisyBytes(64, 123), img0.Images[1].App...)
	img1.CaptureVT = 2.5
	man1, st1 := commitCDC(t, fs, 1, man0, img1)
	if st1.CDCShards != 1 {
		t.Fatalf("epoch 1 stats: %+v", st1)
	}
	c2 := shardOf(t, man1, 2)
	if c2.RawFormat != RawFormatCDC {
		t.Fatalf("duplicated rank not stored as a cdc object: %+v", c2)
	}
	var crossRank int
	for _, c := range c2.Chunks {
		if c.SrcEpoch == 0 && c.SrcRank == 1 {
			crossRank++
		}
	}
	if crossRank < 8 {
		t.Fatalf("only %d chunks deduped against rank 1's object", crossRank)
	}
	got1, err := LoadJobImage(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got1)
}

// TestCDCChainGCAndCompaction: GC traces liveness through chunk refs (a
// chunk source epoch outlives the retention window), and compaction
// flattens a CDC entry into a self-contained full shard with a remapped
// self-sourced chunk table.
func TestCDCChainGCAndCompaction(t *testing.T) {
	fs := mustFileStore(t)
	img0 := cdcImage(4, 21)
	man0, _ := commitCDC(t, fs, 0, nil, img0)
	img1 := cdcImage(4, 21)
	img1.Images[1].App = insertAt(img1.Images[1].App, 1<<19, noisyBytes(48, 3))
	man1, _ := commitCDC(t, fs, 1, man0, img1)
	img2 := cdcImage(4, 21)
	img2.Images[1].App = insertAt(img1.Images[1].App, 1<<18, noisyBytes(48, 4))
	man2, st2 := commitCDC(t, fs, 2, man1, img2)
	if st2.CDCShards != 1 {
		t.Fatalf("epoch 2 stats: %+v", st2)
	}

	// GC keeping only the newest epoch must keep every chunk-source epoch
	// the survivor references alive.
	if _, err := GCStore(fs, 1); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadJobImage(fs, 2)
	if err != nil {
		t.Fatalf("load after GC: %v", err)
	}
	sameImages(t, img2, got2)

	// Compaction flattens the chain into one self-contained epoch: the CDC
	// entry becomes a full chunked shard whose table self-sources from the
	// new epoch, and a follow-up GC can then reclaim everything older.
	newMan, _, err := CompactChain(fs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newMan.Epoch == man2.Epoch {
		t.Fatal("chunk-referencing epoch reported as already self-contained")
	}
	for _, si := range newMan.Shards {
		if si.RefEpoch != newMan.Epoch || si.RawFormat == RawFormatCDC {
			t.Fatalf("compacted entry not self-contained: %+v", si)
		}
		if len(si.Chunks) == 0 {
			t.Fatalf("compacted rank %d dropped its chunk table", si.Rank)
		}
		for k, c := range si.Chunks {
			if c.SrcEpoch != newMan.Epoch || c.SrcRank != si.Rank {
				t.Fatalf("compacted rank %d chunk %d not remapped: %+v", si.Rank, k, c)
			}
		}
	}
	if _, err := GCStore(fs, 1); err != nil {
		t.Fatal(err)
	}
	if eps, err := fs.Epochs(); err != nil || len(eps) != 1 || eps[0] != newMan.Epoch {
		t.Fatalf("GC after compaction left epochs %v (err %v), want just %d", eps, err, newMan.Epoch)
	}
	gotC, err := LoadJobImage(fs, newMan.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img2, gotC)
	if faults, err := VerifyStore(fs); err != nil || len(faults) != 0 {
		t.Fatalf("compacted store did not verify: faults=%v err=%v", faults, err)
	}

	// The compacted chunk tables must keep deduplicating: one more
	// insertion-shifted capture on top of the compacted epoch stores a CDC
	// object again.
	img3 := cdcImage(4, 21)
	img3.Images[1].App = insertAt(img2.Images[1].App, 1<<17, noisyBytes(48, 5))
	_, st3 := commitCDC(t, fs, newMan.Epoch+1, newMan, img3)
	if st3.CDCShards != 1 {
		t.Fatalf("post-compaction capture did not dedup: %+v", st3)
	}
}

// TestCodecNoneRoundTrip: the none codec stores shards uncompressed (stored
// identity equals the raw identity), records CodecNone per shard, decodes a
// mixed-codec delta chain, and still detects corruption.
func TestCodecNoneRoundTrip(t *testing.T) {
	ms, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commit := func(codecName string, epoch int, parent *Manifest, img *JobImage) (*Manifest, *CommitStats) {
		sums, err := HashCaptureCDC(img)
		if err != nil {
			t.Fatal(err)
		}
		return commitWith(t, ms, codecName, epoch, parent, img, sums)
	}

	img0 := cdcImage(2, 31)
	man0, _ := commit("none", 0, nil, img0)
	for _, si := range man0.Shards {
		if si.CodecID != CodecNone {
			t.Fatalf("rank %d sealed with codec %d, want none", si.Rank, si.CodecID)
		}
		if si.Size != si.RawSize || si.Checksum != si.RawSum {
			t.Fatalf("none-codec stored identity differs from raw: %+v", si)
		}
	}
	got0, err := LoadJobImage(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img0, got0)

	// A cdc epoch under the none codec: the object holds the fresh chunks
	// verbatim and still reassembles.
	img1 := cdcImage(2, 31)
	img1.Images[1].App = insertAt(img1.Images[1].App, 1<<19, noisyBytes(16, 8))
	man1, st1 := commit("none", 1, man0, img1)
	if st1.CDCShards != 1 {
		t.Fatalf("epoch 1 stats: %+v", st1)
	}
	if si := shardOf(t, man1, 1); si.CodecID != CodecNone || si.Size != si.DeltaRawSize {
		t.Fatalf("none-codec cdc object: %+v", si)
	}
	got1, err := LoadJobImage(ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got1)

	// Mixed-codec chain: a flate epoch whose delta decodes against the
	// none-codec chain is resolved per shard from the manifest, not from
	// the plan's current knob.
	img2 := cdcImage(2, 31)
	img2.Images[1].App = insertAt(img2.Images[1].App, 1<<18, noisyBytes(16, 9))
	man2, _ := commit("flate", 2, man1, img2)
	if si := shardOf(t, man2, 1); si.CodecID != CodecFlate {
		t.Fatalf("flate epoch sealed with codec %d", si.CodecID)
	}
	got2, err := LoadJobImage(ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img2, got2)

	// Corruption under the none codec is still caught by the stored-object
	// checksum.
	path := ms.ShardPath(0, 0)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJobImage(ms, 0); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("none-codec corruption not caught: %v", err)
	}
}

// trailingCutStream trims noise until its table ends in an end-of-stream cut
// the walk itself would not make: at least the floor long, under the ceiling,
// no gear candidate at its end.
func trailingCutStream(t *testing.T, noise []byte) []byte {
	t.Helper()
	for n := len(noise); n > len(noise)-(64<<10); n -= 1000 {
		table := chunkTable(noise[:n])
		last := table[len(table)-1].Len
		if c := gearCandidates(noise[n-64 : n]); last >= CDCMinChunkBytes && last < CDCMaxChunkBytes && (len(c) == 0 || c[len(c)-1] != 64) {
			return noise[:n]
		}
	}
	t.Fatal("no trim of the noise leaves a floor-sized end-of-stream chunk")
	return nil
}

// TestChunkHintEquality: whatever table the chunker is handed to predict
// from — its own, a stale one, another stream's, a forged one — it emits the
// table and stream sum of the reference walk that rolls over every byte,
// through one write and through random short ones.
func TestChunkHintEquality(t *testing.T) {
	base := trailingCutStream(t, noisyBytes(4<<20, 31))
	own := hintOf(base)
	mid := len(base)/2 + 12345
	inserted := insertAt(base, mid, noisyBytes(200, 8))
	deleted := append(bytes.Clone(base[:mid]), base[mid+777:]...)
	overwritten := bytes.Clone(base)
	copy(overwritten[mid:], noisyBytes(3000, 9))
	twice := insertAt(append(bytes.Clone(inserted[:1<<20]), inserted[1<<20+8:]...), 3<<20, noisyBytes(8, 10))

	// forge returns own with entry k rewritten.
	forge := func(k int, f func(c *ChunkRef)) []ChunkRef {
		h := slices.Clone(own)
		f(&h[k])
		return h
	}
	// The parent's trailing chunk, bytes and table entry, spliced in after
	// chunk 19: length, CRC and sum all check out there, and only the walk's
	// own cut condition says the cut is not one.
	var cut20 int64
	for _, c := range own[:20] {
		cut20 += c.Len
	}
	tail := own[len(own)-1]
	tailMid := insertAt(base, int(cut20), base[int64(len(base))-tail.Len:])
	repeated := bytes.Repeat([]byte{0xAB}, 9*CDCMaxChunkBytes+100)

	cases := []struct {
		name string
		data []byte
		hint []ChunkRef
		// With data in one write: at most maxDeclined expectations dropped —
		// one per edit, two when the edit can straddle a cut — and at least
		// minPredicted chunks predicted, or a predictor that never fires
		// passes every equality below.
		maxDeclined, minPredicted int
	}{
		{"own table", base, own, 0, len(own) - 2},
		{"before an insertion", inserted, own, 1, len(own) - 5},
		{"before a deletion", deleted, own, 1, len(own) - 5},
		{"before an overwrite", overwritten, own, 2, len(own) - 6},
		{"two edits stale", twice, own, 3, len(own) - 9},
		{"another rank's table", base, hintOf(noisyBytes(4<<20, 32)), 0, 0},
		{"empty table", base, []ChunkRef{}, 0, 0},
		{"one-chunk table", base, own[:1], 0, 0},
		{"forged: zero length", base, forge(5, func(c *ChunkRef) { c.Len = 0 }), 1, len(own) - 4},
		{"forged: negative length", base, forge(5, func(c *ChunkRef) { c.Len = -c.Len }), 1, len(own) - 4},
		{"forged: under the floor", base, forge(5, func(c *ChunkRef) { c.Len = CDCMinChunkBytes - 1 }), 1, len(own) - 4},
		{"forged: over the ceiling", base, forge(5, func(c *ChunkRef) { c.Len = CDCMaxChunkBytes + 1 }), 1, len(own) - 4},
		{"forged: longer than the stream", base, forge(5, func(c *ChunkRef) { c.Len = 1 << 40 }), 1, len(own) - 4},
		{"forged: right length, wrong sum", base, forge(5, func(c *ChunkRef) { c.Sum ^= 1 }), 1, len(own) - 4},
		{"forged: right sum, wrong crc", base, forge(5, func(c *ChunkRef) { c.CRC ^= 1 }), 1, len(own) - 4},
		{"forged: trailing chunk mid-stream", tailMid, slices.Insert(slices.Clone(own), 20, tail), 1, len(own) - 4},
		{"identical max-size chunks", repeated, hintOf(repeated), 0, 8},
	}
	for _, tc := range cases {
		ref, refSum := refChunkTable(tc.data), Sum64(tc.data)
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		for _, at := range [][]int{nil, randomSplits(rng, len(tc.data))} {
			cs := chunkHinted(tc.data, at, tc.hint)
			if !slices.Equal(cs.chunks, ref) {
				k := 0
				for k < len(ref) && k < len(cs.chunks) && cs.chunks[k] == ref[k] {
					k++
				}
				t.Fatalf("%s (%d writes): hinted table (%d chunks) and the reference walk's (%d) part at chunk %d", tc.name, len(at)+1, len(cs.chunks), len(ref), k)
			}
			if got := cs.raw.sum64(); got != refSum {
				t.Fatalf("%s (%d writes): stream sum %x, want %x", tc.name, len(at)+1, got, refSum)
			}
			if declined := declinedOf(cs, tc.hint); at == nil && (declined > tc.maxDeclined || cs.predicted < tc.minPredicted) {
				t.Fatalf("%s: %d of %d chunks predicted and %d expectations dropped, want at least %d and at most %d",
					tc.name, cs.predicted, len(ref), declined, tc.minPredicted, tc.maxDeclined)
			}
		}
	}
	// The spliced-in trailing chunk must have been expected and refused, not
	// merely never reached.
	hint := slices.Insert(slices.Clone(own), 20, tail)
	if declined := declinedOf(chunkHinted(tailMid, nil, hint), hint); declined != 1 {
		t.Fatalf("the parent's trailing chunk, found mid-stream: %d expectations dropped, want 1", declined)
	}
}

// declinedOf derives how many expectations a summer fed the stream in one
// write dropped, from the table it emitted and the hint it was handed. It
// replays when the summer expects an entry: after predicting entry e it
// expects e+1, after cutting a chunk equal to entry j (the first with its
// identity) it expects j+1, and it never expects the hint's last entry, the
// parent's end-of-stream cut. A chunk start that expected an entry and did
// not emit it dropped the expectation: with every byte in hand, an expected
// entry the walk's table holds there is one predict emitted.
func declinedOf(cs *chunkSummer, hint []ChunkRef) (declined int) {
	first := make(map[chunkKey]int, len(hint))
	for j := len(hint) - 1; j >= 0; j-- {
		first[keyOfRef(&hint[j])] = j
	}
	next := -1
	for k := range cs.chunks {
		key := keyOfRaw(&cs.chunks[k])
		j, ok := first[key]
		if next >= 0 {
			if key == keyOfRef(&hint[next]) {
				j, ok = next, true
			} else {
				declined++
			}
		}
		next = -1
		if ok && j+1 < len(hint)-1 {
			next = j + 1
		}
	}
	return declined
}

// shiftState emulates the hot rank of apps.Straggler under InsertEvery: 1
// (this package cannot import it): fixed-width 8-byte elements, and every
// step one element inserted at the straggler's interior position — every
// later byte shifts — and a run of eight overwritten in place.
type shiftState struct {
	b    []byte
	iter int
}

// editsPerStep is how many separate byte ranges one step changes.
const editsPerStep = 2

func (s *shiftState) step() {
	s.iter++
	n := len(s.b) / 8
	s.b = insertAt(s.b, (s.iter*131%(n-1))*8, noisyBytes(8, uint64(s.iter)))
	for k := 0; k < 8; k++ {
		s.b[((s.iter*8+k)%n)*8+3] ^= byte(s.iter) | 1
	}
}

// cdcCoordinator is a stub coordinator over store whose rank 0 snapshots
// state and whose other ranks never change, committing CDC epochs.
func cdcCoordinator(t *testing.T, store Store, state *shiftState, n int) *Coordinator {
	t.Helper()
	c, _, _ := newStubCoordinator(t, n, Plan{Store: store, Incremental: true, CDC: true})
	h := c.hooks[0]
	h.AppSnapshotTo = func(w io.Writer) error {
		_, err := w.Write(state.b)
		return err
	}
	c.RegisterRank(0, h)
	return c
}

// captureNow raises one checkpoint request, parks every rank until the
// capture releases them, and returns the captured image. Under Async the
// commit may still be running.
func captureNow(t *testing.T, c *Coordinator, vt float64) *JobImage {
	t.Helper()
	if !c.RequestCheckpoint(vt) {
		t.Fatal("checkpoint request rejected")
	}
	var wg sync.WaitGroup
	for r := 0; r < c.W.N; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c.ParkUntil(rank, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay })
		}(r)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.image
}

// TestHintedCaptureAfterRestart: the first capture of a coordinator resumed
// on a store — a restarted allocation's — is hashed against the chain's last
// manifest: on the insertion-shifted straggler shape at least nine chunks in
// ten are predicted, an edit costs at most one dropped expectation, the count
// reaches CheckpointStats, and the table is the reference walk's.
func TestHintedCaptureAfterRestart(t *testing.T) {
	const ranks, steps = 4, 4
	store := NewMemStore()
	state := &shiftState{b: noisyBytes(8<<20, 77)}
	first := cdcCoordinator(t, store, state, ranks)
	captureNow(t, first, 1)
	if h := first.History(); len(h) != 1 || h[0].Epoch != 0 || h[0].CDCPredictedChunks != 0 {
		t.Fatalf("a chain's first capture has no table to predict from: %+v", h)
	}
	man0, err := store.GetManifest(0)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < steps; i++ {
		state.step()
	}
	resumed := cdcCoordinator(t, store, state, ranks)
	img := captureNow(t, resumed, 2)
	h := resumed.History()
	if len(h) != 1 || h[0].Epoch != 1 || h[0].CDCShards != 1 {
		t.Fatalf("resumed capture: %+v", h)
	}
	man1, err := store.GetManifest(1)
	if err != nil {
		t.Fatal(err)
	}
	hot := shardOf(t, man1, 0)
	if got, total := h[0].CDCPredictedChunks, len(hot.Chunks); total < 100 || got*10 < total*9 {
		t.Fatalf("%d of the straggler's %d chunks predicted, want at least nine in ten", got, total)
	}

	// The same pass by hand, for what the stats do not carry.
	stream, err := newShardStream(&img.Images[0], true)
	if err != nil {
		t.Fatal(err)
	}
	hint := shardOf(t, man0, 0).Chunks
	cs := newChunkSummer(hint)
	if err := stream.writeTo(cs); err != nil {
		t.Fatal(err)
	}
	cs.finish()
	if cs.predicted != h[0].CDCPredictedChunks {
		t.Fatalf("stats say %d chunks predicted, the straggler's own pass %d", h[0].CDCPredictedChunks, cs.predicted)
	}
	// declinedOf reads the pass as one write: a drop at one of the stream's
	// few segment ends, where predict lacked the bytes, would go uncounted.
	if declined := declinedOf(cs, hint); declined > steps*editsPerStep {
		t.Fatalf("%d expectations dropped over %d edits", declined, steps*editsPerStep)
	}
	var raw bytes.Buffer
	if err := stream.writeTo(&raw); err != nil {
		t.Fatal(err)
	}
	ref := refChunkTable(raw.Bytes())
	if !slices.Equal(cs.chunks, ref) || len(hot.Chunks) != len(ref) {
		t.Fatalf("hinted table differs from the reference walk's")
	}
	for k, c := range hot.Chunks {
		if (RawChunk{c.Len, c.CRC, c.Sum}) != ref[k] {
			t.Fatalf("sealed chunk %d is %+v, the reference walk's %+v", k, c, ref[k])
		}
	}
	if hot.RawSum != Sum64(raw.Bytes()) {
		t.Fatalf("sealed stream sum %x, want %x", hot.RawSum, Sum64(raw.Bytes()))
	}
}

// TestHintedAsyncChain: the hint is loaded outside the commit order while
// earlier commits store it in that order. An Async chain of CDC captures
// in back-to-back bursts must seal exactly the manifests a serial replay of
// the same images — unhinted, one commit at a time — seals. Run under -race.
func TestHintedAsyncChain(t *testing.T) {
	const ranks, captures = 4, 9
	store := NewMemStore()
	state := &shiftState{b: noisyBytes(2<<20, 55)}
	c := cdcCoordinator(t, store, state, ranks)
	c.Plan.Async = true
	imgs := make([]*JobImage, captures)
	for k := range imgs {
		imgs[k] = captureNow(t, c, float64(k+1))
		state.step()
		if k%3 == 2 {
			// Let the burst's commits seal, so the next burst's first hash
			// reads the newest manifest while the rest read stale ones.
			c.History()
		}
	}
	hist := c.History()
	if len(hist) != captures {
		t.Fatalf("%d captures in the history, want %d", len(hist), captures)
	}
	_, _, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}

	serial := NewMemStore()
	var parent *Manifest
	var predicted int
	for k, st := range hist {
		sums, err := HashCaptureCDC(imgs[k])
		if err != nil {
			t.Fatal(err)
		}
		if parent, _, err = CommitStreamed(serial, st.Epoch, parent, imgs[k], sums, nil); err != nil {
			t.Fatal(err)
		}
		predicted += st.CDCPredictedChunks
	}
	if predicted == 0 {
		t.Fatal("no chunk was predicted: the hint was never exercised")
	}
	t.Logf("%d captures, %d chunks predicted", captures, predicted)
	got, err := store.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("chain sealed epochs %v, serial replay %v", got, want)
	}
	for _, e := range want {
		a, err := store.GetManifest(e)
		if err != nil {
			t.Fatal(err)
		}
		b, err := serial.GetManifest(e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("epoch %d: the chain sealed\n%+v\nthe serial replay\n%+v", e, a, b)
		}
	}
}

// TestHintManifestShapes: the identity pass takes a rank's hint only from a
// manifest entry at the same position for the same rank — a parent with
// fewer shards than the image, or with other ranks in its slots, is not
// indexed past its end or believed — and whatever it takes, the sums and
// tables are the unhinted pass's.
func TestHintManifestShapes(t *testing.T) {
	img := cdcImage(4, 3)
	man, _ := commitCDC(t, NewMemStore(), 0, nil, img)
	want, err := HashCaptureCDC(img)
	if err != nil {
		t.Fatal(err)
	}
	short, swapped := *man, *man
	short.Shards = man.Shards[:2]
	swapped.Shards = slices.Clone(man.Shards)
	slices.Reverse(swapped.Shards)
	for _, tc := range []struct {
		name   string
		hint   *Manifest
		hinted int // ranks that find their own table
	}{
		{"none", nil, 0},
		{"own", man, 4},
		{"fewer shards", &short, 2},
		{"other ranks' slots", &swapped, 0},
		{"no shards", &Manifest{}, 0},
	} {
		got, err := hashCapture(img, 0, true, tc.hint)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got.Sums, want.Sums) || !slices.Equal(got.Sizes, want.Sizes) || !reflect.DeepEqual(got.Chunks, want.Chunks) {
			t.Fatalf("%s: hinted identity pass differs from the unhinted one", tc.name)
		}
		if (got.PredictedChunks > 0) != (tc.hinted > 0) {
			t.Fatalf("%s: %d chunks predicted with %d ranks hinted", tc.name, got.PredictedChunks, tc.hinted)
		}
	}
}

// BenchmarkChunkHintRatio is a gate (b.Fatalf), not a measurement: chunking
// a 16 MiB insertion-shifted stream with the table from before the insertion
// as the hint must run at least twice as fast as chunking it without one, in
// the same process — the BenchmarkIdentityPassRatio idiom; CI runs it by
// name with -benchtime=1x, without -race.
func BenchmarkChunkHintRatio(b *testing.B) {
	before := noisyBytes(16<<20, 1)
	hint := hintOf(before)
	buf := insertAt(before, len(before)/3, noisyBytes(8, 2))
	pass := func(hint []ChunkRef) time.Duration {
		t0 := time.Now()
		cs := chunkHinted(buf, nil, hint)
		d := time.Since(t0)
		identitySink += cs.raw.sum64()
		return d
	}
	mbps := func(d time.Duration) float64 { return float64(len(buf)) / 1e6 / d.Seconds() }
	for i := 0; i < b.N; i++ {
		// Fastest of five each, taken turn about so a busy spell on a shared
		// host lands on both sides.
		plain, hinted := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for try := 0; try < 5; try++ {
			plain, hinted = min(plain, pass(nil)), min(hinted, pass(hint))
		}
		if plain < 2*hinted {
			b.Fatalf("hinted chunk pass took %v over 16 MiB, unhinted %v: want at least 2x faster", hinted, plain)
		}
		b.ReportMetric(mbps(hinted), "MB/s")
		b.ReportMetric(mbps(plain), "unhinted-MB/s")
		b.ReportMetric(float64(plain)/float64(hinted), "x-unhinted")
	}
}
