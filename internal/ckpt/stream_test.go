package ckpt

// The by-offset range writer against a reference: a partial object
// (page-delta or CDC) built by copying dirty pages / fresh chunks out of the
// segment list must be byte-for-byte what slicing the materialised logical
// stream gives.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mana/internal/mpi"
)

// straddlingImage draws a rank image whose segment boundaries (header | App
// | Proto | in-flight payloads) fall at arbitrary offsets: shape picks the
// degenerate layouts (no Proto, no in-flight, empty payloads, a tiny App),
// the rng everything else.
func straddlingImage(rng *rand.Rand, rank, shape int, scale int) RankImage {
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	ri := RankImage{
		Rank:    rank,
		Desc:    Descriptor{Kind: ParkPreCollective, Coll: &CollDesc{Kind: 1, Bench: true, VirtSize: 8}},
		ClockVT: 1 + rng.Float64(),
		App:     noise(scale + rng.Intn(4*scale)),
	}
	switch shape % 4 {
	case 0: // empty Proto, zero in-flight: App runs to the end of the stream
	case 1: // a Proto straddled by whatever unit App ends in
		ri.Proto = noise(1 + rng.Intn(scale))
	case 2: // several in-flight payloads, one empty, one a single byte
		ri.Proto = noise(rng.Intn(scale / 2))
		for _, n := range []int{rng.Intn(scale), 0, 1, scale/3 + rng.Intn(scale)} {
			ri.Inflight = append(ri.Inflight, mpi.InflightSnapshot{CommID: 1, SrcComm: 1, Tag: n, Data: noise(n)})
		}
	case 3: // tiny App: the first unit already spans three segments
		ri.App = noise(1 + rng.Intn(7))
		ri.Proto = noise(scale / 2)
		ri.Inflight = []mpi.InflightSnapshot{{CommID: 2, Tag: 9, Data: noise(2 * scale)}}
	}
	return ri
}

// logicalOf materialises a rank image's clockless logical stream — the
// reference every range is sliced from.
func logicalOf(t *testing.T, ri *RankImage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeShardRaw(&buf, ri, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// partialReference builds a partial object's stored stream the slow way: the
// listed [lo, hi) slices of the logical stream, back to back.
func partialReference(logical []byte, spans [][2]int64) []byte {
	var ref []byte
	for _, s := range spans {
		ref = append(ref, logical[s[0]:s[1]]...)
	}
	return ref
}

// checkStored holds one committed partial entry to its reference: the
// stored object decodes to exactly the reference stream, the manifest's
// stored-stream and object identities describe those bytes, and under the
// identity codec the object IS the reference.
func checkStored(t *testing.T, store Store, si *ShardInfo, codecName string, ref []byte) {
	t.Helper()
	blob, err := store.GetShard(si.RefEpoch, si.Rank)
	if err != nil {
		t.Fatal(err)
	}
	if si.Size != int64(len(blob)) || si.Checksum != Sum64(blob) {
		t.Fatalf("rank %d: Size/Checksum %d/%x do not describe the %d stored bytes", si.Rank, si.Size, si.Checksum, len(blob))
	}
	codec, err := CodecByName(codecName)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := io.ReadAll(codec.NewReader(bytes.NewReader(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, ref) {
		t.Fatalf("rank %d: stored stream (%d bytes) differs from the sliced reference (%d bytes)", si.Rank, len(stored), len(ref))
	}
	if codecName == "none" && !bytes.Equal(blob, ref) {
		t.Fatalf("rank %d: identity-codec object is not the reference stream", si.Rank)
	}
	if si.DeltaRawSize != int64(len(ref)) || si.DeltaRawSum != Sum64(ref) {
		t.Fatalf("rank %d: DeltaRawSize/DeltaRawSum %d/%x, reference is %d/%x",
			si.Rank, si.DeltaRawSize, si.DeltaRawSum, len(ref), Sum64(ref))
	}
}

// commitWith is CommitStreamed through a named codec — the way the
// coordinator selects a commit's codec: the builder, then the seal.
func commitWith(t testing.TB, store Store, codecName string, epoch int, parent *Manifest, img *JobImage, sums *ShardSums) (*Manifest, *CommitStats) {
	t.Helper()
	codec, err := CodecByName(codecName)
	if err != nil {
		t.Fatal(err)
	}
	man, st, err := buildCommit(store, codec, epoch, parent, img, sums)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutManifest(epoch, man); err != nil {
		t.Fatal(err)
	}
	return man, st
}

// TestPageDeltaRangesMatchSlicedStream: randomized images, page sizes that
// divide nothing, random dirty sets — committed through HashCapturePaged and
// CommitStreamed against a synthetic parent whose page table differs in
// exactly the chosen pages.
func TestPageDeltaRangesMatchSlicedStream(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pageSize := int64(257 + rng.Intn(3000))
		codecName := []string{"none", "flate"}[seed%2]
		img := &JobImage{Algorithm: "cc", Ranks: 4, PPN: 2, CaptureVT: 2, Images: make([]RankImage, 4)}
		for r := range img.Images {
			img.Images[r] = straddlingImage(rng, r, r, int(pageSize))
		}
		if seed%3 == 0 {
			// A stream that ends exactly on a page boundary (no short page).
			ri := &img.Images[0]
			if pad := int(pageSize) - len(logicalOf(t, ri))%int(pageSize); pad != int(pageSize) {
				ri.App = append(ri.App, make([]byte, pad)...)
			}
		}
		sums, err := HashCapturePaged(img, pageSize)
		if err != nil {
			t.Fatal(err)
		}

		// The parent: same geometry, full shards in epoch 0, page tables
		// that disagree with this capture in a random set of at most half
		// the pages (more would re-anchor to a full shard).
		parent := &Manifest{Ranks: 4, Version: ManifestV4, Epoch: 0, Parent: -1, Shards: make([]ShardInfo, 4)}
		dirty := make([][]int32, 4)
		for r := range parent.Shards {
			pages := append([]uint32(nil), sums.PageSums[r]...)
			n := len(pages)
			for _, p := range rng.Perm(n)[:1+rng.Intn(max(1, n/2))] {
				pages[p] ^= 0xdeadbeef
				dirty[r] = append(dirty[r], int32(p))
			}
			parent.Shards[r] = ShardInfo{Rank: r, RawSize: sums.Sizes[r], RawSum: sums.Sums[r] + 1,
				RawFormat: RawFormatChunked, PageSize: pageSize, PageSums: pages, Size: 100}
		}

		store := NewMemStore()
		man, _ := commitWith(t, store, codecName, 1, parent, img, sums)
		for r := range man.Shards {
			si := &man.Shards[r]
			sort.Slice(dirty[r], func(a, b int) bool { return dirty[r][a] < dirty[r][b] })
			if si.RawFormat != RawFormatPageDelta || fmt.Sprint(si.DeltaPages) != fmt.Sprint(dirty[r]) {
				t.Fatalf("seed %d rank %d: format %d with dirty pages %v, want a delta of %v",
					seed, r, si.RawFormat, si.DeltaPages, dirty[r])
			}
			logical := logicalOf(t, &img.Images[r])
			if si.RawSize != int64(len(logical)) || si.RawSum != Sum64(logical) {
				t.Fatalf("seed %d rank %d: logical identity %d/%x, stream is %d/%x",
					seed, r, si.RawSize, si.RawSum, len(logical), Sum64(logical))
			}
			var spans [][2]int64
			for _, p := range si.DeltaPages {
				lo := int64(p) * pageSize
				spans = append(spans, [2]int64{lo, min(lo+pageSize, int64(len(logical)))})
			}
			checkStored(t, store, si, codecName, partialReference(logical, spans))
		}
	}
}

// TestCDCRangesMatchSlicedStream: the same property for chunk objects —
// random subsets of each rank's content-defined chunks are made "already
// stored" through a synthetic parent table, the rest must land in the
// object in index order, at the SrcOff the manifest stamps.
func TestCDCRangesMatchSlicedStream(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		codecName := []string{"none", "flate"}[seed%2]
		img := &JobImage{Algorithm: "cc", Ranks: 4, PPN: 2, CaptureVT: 2, Images: make([]RankImage, 4)}
		for r := range img.Images {
			// Segments of tens of KiB against 8-128 KiB chunks: boundaries
			// land inside App, Proto and in-flight payloads alike.
			img.Images[r] = straddlingImage(rng, r, r, 40<<10)
		}
		sums, err := HashCaptureCDC(img)
		if err != nil {
			t.Fatal(err)
		}

		// The parent's index holds a random subset of every rank's chunks,
		// all filed under one foreign shard (cross-rank reuse), at least
		// half of each rank's bytes so the commit keeps a CDC object.
		parent := &Manifest{Ranks: 4, Version: ManifestV5, Epoch: 0, Parent: -1, Shards: make([]ShardInfo, 4)}
		reused := make([]map[int]bool, 4)
		var foreign []ChunkRef
		for r := range parent.Shards {
			parent.Shards[r] = ShardInfo{Rank: r, RawSize: 1, RawSum: uint64(r), RawFormat: RawFormatChunked}
			reused[r] = make(map[int]bool)
			var have int64
			for _, k := range rng.Perm(len(sums.Chunks[r])) {
				if have*2 >= sums.Sizes[r] && rng.Intn(3) > 0 {
					continue
				}
				c := sums.Chunks[r][k]
				reused[r][k] = true
				have += c.Len
				foreign = append(foreign, ChunkRef{Len: c.Len, CRC: c.CRC, Sum: c.Sum, SrcEpoch: 0, SrcRank: 3, SrcOff: int64(len(foreign))})
			}
		}
		parent.Shards[3].Chunks = foreign

		store := NewMemStore()
		man, _ := commitWith(t, store, codecName, 1, parent, img, sums)
		for r := range man.Shards {
			si := &man.Shards[r]
			if si.RawFormat != RawFormatCDC {
				t.Fatalf("seed %d rank %d: stored as format %d, want a chunk object", seed, r, si.RawFormat)
			}
			logical := logicalOf(t, &img.Images[r])
			var spans [][2]int64
			var fresh []int32
			var off int64
			for k, c := range sums.Chunks[r] {
				if !reused[r][k] {
					fresh = append(fresh, int32(k))
					spans = append(spans, [2]int64{off, off + c.Len})
				}
				off += c.Len
			}
			ref := partialReference(logical, spans)
			checkStored(t, store, si, codecName, ref)
			var at int64
			for _, k := range fresh {
				c := &si.Chunks[k]
				if c.SrcEpoch != 1 || c.SrcRank != r || c.SrcOff != at {
					t.Fatalf("seed %d rank %d chunk %d: addressed (%d, %d, %d), reference offset is %d",
						seed, r, k, c.SrcEpoch, c.SrcRank, c.SrcOff, at)
				}
				if got := crc32.Checksum(ref[at:at+c.Len], crcTable); got != c.CRC {
					t.Fatalf("seed %d rank %d chunk %d: bytes at its SrcOff have crc %08x, table says %08x", seed, r, k, got, c.CRC)
				}
				at += c.Len
			}
		}
	}
}

// TestCommitRejectsMutatedPage: with the re-hash gone, the range writer's
// CRC check is what catches a captured image that changed between the hash
// pass and the commit — and it names the page.
func TestCommitRejectsMutatedPage(t *testing.T) {
	fs := mustFileStore(t)
	img0 := pagedImage(4, 6)
	man0, _ := commitPaged(t, fs, 0, nil, img0)
	img1 := pagedImage(4, 6)
	img1.Images[1].App[5000] ^= 0xFF // dirties one page of rank 1
	sums, err := HashCapturePaged(img1, testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	img1.Images[1].App[5001] ^= 0xFF // ... and changes again after the hash pass
	_, _, err = CommitStreamed(fs, 1, man0, img1, sums, nil)
	if err == nil {
		t.Fatal("commit sealed a page whose bytes no longer match the hash pass")
	}
	dirty := dirtyPages(shardOf(t, man0, 1), sums.PageSums[1])
	if len(dirty) != 1 {
		t.Fatalf("fixture dirtied pages %v, want exactly one", dirty)
	}
	for _, want := range []string{"rank 1", fmt.Sprintf("page %d ", dirty[0]), "hash pass"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if _, err := fs.GetManifest(1); err == nil {
		t.Fatal("the failed commit sealed a manifest")
	}
}

// TestCompactionChecksFlattenedIdentity: flattening reads the raw identity
// of what it writes off the entry reader (the shard writer only counts
// bytes), and a partial shard whose verified merge does not hash to its
// manifest identity must not be compacted into a full shard that claims it:
// the entry reader's finish refuses it, and both epochs survive.
func TestCompactionChecksFlattenedIdentity(t *testing.T) {
	commits := map[string]func(testing.TB, Store, int, *Manifest, *JobImage) (*Manifest, *CommitStats){
		"delta": commitPaged, "cdc": commitCDC,
	}
	for name, commit := range commits {
		fs := mustFileStore(t)
		img0, img1 := pagedImage(4, 6), pagedImage(4, 6)
		want := RawFormatPageDelta
		if name == "cdc" {
			img0, img1 = cdcImage(4, 1), cdcImage(4, 1)
			want = RawFormatCDC
		}
		man0, _ := commit(t, fs, 0, nil, img0)
		img1.Images[1].App[5000] ^= 0xFF
		man1, _ := commit(t, fs, 1, man0, img1)
		si := shardOf(t, man1, 1)
		if si.RawFormat != want {
			t.Fatalf("%s: fixture stored format %d", name, si.RawFormat)
		}
		si.RawSum ^= 1 // every page and chunk CRC still passes; only the stream identity lies
		if err := fs.PutManifest(1, man1); err != nil {
			t.Fatal(err)
		}
		_, _, err := CompactChain(fs, 1, nil)
		if err == nil || !strings.Contains(err.Error(), "merged stream does not match the manifest identity") {
			t.Fatalf("%s: compaction over a lying identity: %v", name, err)
		}
		if epochs, _ := fs.Epochs(); len(epochs) != 2 {
			t.Fatalf("%s: failed compaction left epochs %v", name, epochs)
		}
	}
}

// TestCommitCopiesFromHashedStreams: the identity pass hands its stream
// layouts to the commit inside ShardSums, so a shard's gob header is encoded
// once per checkpoint. The hand-off must be invisible in what is stored: one
// ShardSums serves any number of commits of its image, a ShardSums built by
// hand (no layouts) commits the same bytes, and sums that belong to ANOTHER
// image never get that image's bytes written under this one's name.
func TestCommitCopiesFromHashedStreams(t *testing.T) {
	img := testImage(4, 2)
	sums, err := HashCapture(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums.streams) != 4 || sums.streams[3].ri != &img.Images[3] {
		t.Fatal("the identity pass did not keep its stream layouts")
	}
	byHand := &ShardSums{Sums: sums.Sums, Sizes: sums.Sizes}
	var want *MemStore
	for i, s := range []*ShardSums{sums, sums, byHand} {
		store := NewMemStore()
		if _, _, err := CommitStreamed(store, 0, nil, img, s, nil); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if want == nil {
			want = store
			continue
		}
		if !reflect.DeepEqual(store.epochs, want.epochs) {
			t.Fatalf("commit %d stored different bytes than the first", i)
		}
	}
	other := testImage(4, 9) // same sizes, different bytes
	store := NewMemStore()
	if _, _, err := CommitStreamed(store, 0, nil, other, sums, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJobImage(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, got, other)
}

// sizedSink is countWriter's downstream in the split tests: it keeps the
// bytes, remembers the longest Write it was handed, and, with failAt > 0,
// accepts only the first failAt bytes and then fails.
type sizedSink struct {
	bytes.Buffer
	longest int
	failAt  int
}

var errSinkFull = fmt.Errorf("sink full")

func (s *sizedSink) Write(p []byte) (int, error) {
	s.longest = max(s.longest, len(p))
	if s.failAt > 0 && s.Len()+len(p) > s.failAt {
		n, _ := s.Buffer.Write(p[:s.failAt-s.Len()])
		return n, errSinkFull
	}
	return s.Buffer.Write(p)
}

// TestCountWriterSplitsLongWrites: countWriter hands its downstream pieces
// of at most countPieceBytes, and nothing it computes or forwards depends on
// it — stream sum, byte count, downstream bytes and the page table a
// pageSummer behind it builds are those of the logical stream whether each
// segment arrives as one Write (what shardStream.writeTo does) or cut at
// random, for segments shorter than, equal to and longer than a piece.
func TestCountWriterSplitsLongWrites(t *testing.T) {
	const pageSize = 64 << 10
	rng := rand.New(rand.NewSource(23))
	var images []RankImage
	for shape := 0; shape < 8; shape++ {
		images = append(images, straddlingImage(rng, shape, shape, countPieceBytes/2))
	}
	for _, n := range []int{countPieceBytes - 1, countPieceBytes, countPieceBytes + 1, 3*countPieceBytes + 7} {
		ri := straddlingImage(rng, len(images), 1, 1<<10)
		ri.App = make([]byte, n)
		rng.Read(ri.App)
		images = append(images, ri)
	}
	for i := range images {
		ri := &images[i]
		logical := logicalOf(t, ri)
		s, err := newShardStream(ri, true)
		if err != nil {
			t.Fatal(err)
		}
		feed := func(cut bool) (*countWriter, *sizedSink, []uint32) {
			sink := &sizedSink{}
			ps := newPageSummer(pageSize, sink)
			cw := newCountWriter(ps)
			for _, seg := range s.segs {
				at := []int{len(seg)}
				if cut {
					at = randomSplits(rng, len(seg))
				}
				prev := 0
				for _, end := range at {
					end = min(end, len(seg))
					if n, err := cw.Write(seg[prev:end]); err != nil || n != end-prev {
						t.Fatalf("image %d: Write of %d bytes returned (%d, %v)", i, end-prev, n, err)
					}
					prev = end
				}
			}
			return cw, sink, ps.finish()
		}
		whole, wholeSink, wholePages := feed(false)
		if wholeSink.longest > countPieceBytes {
			t.Fatalf("image %d: downstream was handed a %d-byte Write, want at most %d", i, wholeSink.longest, countPieceBytes)
		}
		if whole.n != int64(len(logical)) || whole.h.sum64() != Sum64(logical) || !bytes.Equal(wholeSink.Bytes(), logical) {
			t.Fatalf("image %d: whole-segment writes: %d bytes sum %#x, want the logical stream's %d bytes sum %#x",
				i, whole.n, whole.h.sum64(), len(logical), Sum64(logical))
		}
		cut, cutSink, cutPages := feed(true)
		if cut.n != whole.n || cut.h.sum64() != whole.h.sum64() || !bytes.Equal(cutSink.Bytes(), logical) || !reflect.DeepEqual(cutPages, wholePages) {
			t.Fatalf("image %d: cutting the segments changed what countWriter computed or forwarded", i)
		}
		var wantPages []uint32
		for off := 0; off < len(logical); off += pageSize {
			wantPages = append(wantPages, crc32.Checksum(logical[off:min(off+pageSize, len(logical))], crcTable))
		}
		if !reflect.DeepEqual(wholePages, wantPages) {
			t.Fatalf("image %d: page table differs from the logical stream's", i)
		}
	}
}

// TestCountWriterFailingDownstream: a downstream that fails mid-segment gets
// its error and its own byte count returned, and countWriter has hashed at
// least those bytes and at most one piece more.
func TestCountWriterFailingDownstream(t *testing.T) {
	seg := make([]byte, 3*countPieceBytes+7)
	rand.New(rand.NewSource(5)).Read(seg)
	for _, failAt := range []int{1, countPieceBytes - 1, countPieceBytes, countPieceBytes + 1, 2*countPieceBytes + 9, len(seg) - 1} {
		sink := &sizedSink{failAt: failAt}
		cw := newCountWriter(sink)
		n, err := cw.Write(seg)
		if err != errSinkFull || n != failAt {
			t.Fatalf("failing at %d: Write returned (%d, %v), want (%d, %v)", failAt, n, err, failAt, errSinkFull)
		}
		if hashed := cw.n; int64(n) > hashed || hashed > int64(n)+countPieceBytes {
			t.Fatalf("failing at %d: %d bytes consumed, %d hashed", failAt, n, hashed)
		}
		if cw.h.sum64() != Sum64(seg[:cw.n]) {
			t.Fatalf("failing at %d: sum is not that of the %d bytes counted", failAt, cw.n)
		}
	}
	// A downstream that comes up short without an error is an error.
	short := newCountWriter(writerFunc(func(p []byte) (int, error) { return len(p) / 2, nil }))
	if n, err := short.Write(seg); err != io.ErrShortWrite || n != countPieceBytes/2 {
		t.Fatalf("short downstream: Write returned (%d, %v)", n, err)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
