package ckpt

// Tests for the one partial-shard model (partial.go): both raw formats go
// through the same extent merge, so one damage list runs against a
// page-delta chain and a CDC chain and must draw the same verdicts, in the
// same order, in the same words.

import (
	"bytes"
	"io"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// partialChain is a two-epoch store whose epoch 1 holds rank 1 as a partial
// object sourced from rank 1's full shard in epoch 0.
type partialChain struct {
	store *MemStore
	man   *Manifest  // epoch 1
	si    *ShardInfo // man's rank-1 entry
	img   *JobImage  // what epoch 1 captured
	edit  int        // an index of img.Images[1].App inside an extent the object stores itself
}

var partialChains = []struct {
	name  string
	build func(t testing.TB) *partialChain
}{
	{"page-delta", func(t testing.TB) *partialChain {
		c := &partialChain{store: NewMemStore(), img: pagedImage(4, 6), edit: 5000}
		man0, _ := commitPaged(t, c.store, 0, nil, pagedImage(4, 6))
		c.img.Images[1].App[c.edit] ^= 0xFF
		c.man, _ = commitPaged(t, c.store, 1, man0, c.img)
		return c
	}},
	{"cdc", func(t testing.TB) *partialChain {
		c := &partialChain{store: NewMemStore(), img: cdcImage(4, 9), edit: 4100}
		man0, _ := commitCDC(t, c.store, 0, nil, cdcImage(4, 9))
		c.img.Images[1].App = insertAt(c.img.Images[1].App, 4096, noisyBytes(32, 7))
		c.man, _ = commitCDC(t, c.store, 1, man0, c.img)
		return c
	}},
}

// flipShard flips one byte in the middle of a stored object.
func flipShard(t *testing.T, s Store, epoch, rank int) {
	t.Helper()
	blob, err := s.GetShard(epoch, rank)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := putShard(s, epoch, rank, blob); err != nil {
		t.Fatal(err)
	}
}

// rewriteOwnObject re-encodes c.si's own object from ri, patches the
// manifest's envelope identities (Size, Checksum, stored-stream identity) to
// the new object and reseals — the object a buggy-but-consistent writer
// would leave behind, which only the checks past the envelope can catch.
// Ranges carry ri's own CRCs, because the range writer refuses bytes that
// disagree with the CRC it is handed.
func (c *partialChain) rewriteOwnObject(t *testing.T, ri RankImage) {
	t.Helper()
	stream, err := newShardStream(&ri, true)
	if err != nil {
		t.Fatal(err)
	}
	if stream.size != c.si.RawSize {
		t.Fatalf("rewritten stream changed length: %d vs %d", stream.size, c.si.RawSize)
	}
	own := c.si.ownRanges()
	for k := range own {
		if own[k].crc, err = stream.writeRange(io.Discard, own[k].off, own[k].n); err != nil {
			t.Fatal(err)
		}
	}
	sink := &memSink{}
	if err := writePartialShard(c.si, sink, FlateCodec(0), stream, own); err != nil {
		t.Fatal(err)
	}
	if err := putShard(c.store, 1, 1, sink.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := c.store.PutManifest(1, c.man); err != nil {
		t.Fatal(err)
	}
}

// TestPartialMergeVerdicts runs one damage list against both partial
// formats. Every verdict must name epoch 1 rank 1, match the same pattern
// whichever format stored the entry, and come back identically from the
// three consumers of the merge: load, VerifyStore and compaction.
func TestPartialMergeVerdicts(t *testing.T) {
	extentRE := regexp.MustCompile(`extent (\d+) corrupted \(crc [0-9a-f]{8}, want [0-9a-f]{8}; sourced from epoch (\d+) rank 1\)`)
	// extentFrom checks that the verdict names an extent the entry's own
	// derivation places in the given epoch.
	extentFrom := func(epoch int) func(*testing.T, *partialChain, string) {
		return func(t *testing.T, c *partialChain, msg string) {
			m := extentRE.FindStringSubmatch(msg)
			if m == nil {
				t.Fatalf("verdict %q does not name the extent and its source", msg)
			}
			k, _ := strconv.Atoi(m[1])
			from, _ := strconv.Atoi(m[2])
			found := false
			c.si.extents(func(i int, e extent) {
				found = found || (i == k && e.epoch == epoch && c.si.owns(e) == (epoch == 1))
			})
			if !found || from != epoch {
				t.Fatalf("verdict %q blames extent %d (epoch %d), want one stored in epoch %d", msg, k, from, epoch)
			}
		}
	}
	damages := []struct {
		name   string
		damage func(*testing.T, *partialChain)
		want   string // substring of the verdict
		check  func(*testing.T, *partialChain, string)
		// rank1Only: the damage breaks other ranks of epoch 1 too, so only
		// the single-rank load can be held to naming rank 1.
		rank1Only bool
	}{
		{name: "own object flipped",
			damage: func(t *testing.T, c *partialChain) { flipShard(t, c.store, 1, 1) },
			want:   "shard corrupted (checksum "},
		{name: "source flipped",
			damage: func(t *testing.T, c *partialChain) { flipShard(t, c.store, 0, 1) },
			want:   "source shard in epoch 0 corrupted (checksum "},
		{name: "own and source flipped: own wins",
			damage: func(t *testing.T, c *partialChain) {
				flipShard(t, c.store, 0, 1)
				flipShard(t, c.store, 1, 1)
			},
			want: ": shard corrupted (checksum "},
		{name: "source truncated",
			damage: func(t *testing.T, c *partialChain) {
				blob, err := c.store.GetShard(0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := putShard(c.store, 0, 1, blob[:len(blob)/2]); err != nil {
					t.Fatal(err)
				}
			},
			want: "source shard in epoch 0 corrupted (checksum "},
		{name: "own payload fails its crc",
			damage: func(t *testing.T, c *partialChain) {
				bad := c.img.Images[1]
				bad.App = append([]byte(nil), bad.App...)
				bad.App[c.edit] ^= 0x0F
				c.rewriteOwnObject(t, bad)
			},
			want: "corrupted (crc ", check: extentFrom(1)},
		{name: "sourced payload fails its crc",
			damage: func(t *testing.T, c *partialChain) {
				// Every object is intact; the entry's table is what lies.
				sourced := -1
				c.si.extents(func(k int, e extent) {
					if !c.si.owns(e) && sourced < 0 {
						sourced = k
					}
				})
				if len(c.si.Chunks) > 0 {
					c.si.Chunks[sourced].CRC ^= 1
				} else {
					c.si.PageSums[sourced] ^= 1
				}
				if err := c.store.PutManifest(1, c.man); err != nil {
					t.Fatal(err)
				}
			},
			want: "corrupted (crc ", check: extentFrom(0)},
		{name: "source epoch unsealed",
			damage: func(t *testing.T, c *partialChain) {
				if _, err := c.store.DeleteEpoch(0); err != nil {
					t.Fatal(err)
				}
			},
			want: "references epoch 0, which is not sealed in the store", rank1Only: true},
	}
	for _, chain := range partialChains {
		for _, d := range damages {
			t.Run(chain.name+"/"+d.name, func(t *testing.T) {
				c := chain.build(t)
				c.si = shardOf(t, c.man, 1)
				if !c.si.Partial() || c.si.RefEpoch != 1 {
					t.Fatalf("fixture did not store rank 1 as a partial object: %+v", c.si)
				}
				if _, srcs := c.si.Sources(); len(srcs) != 1 || srcs[0].Epoch != 0 || srcs[0].Rank != 1 {
					t.Fatalf("fixture sources %+v, want exactly epoch 0 rank 1", srcs)
				}
				if got, err := LoadJobImage(c.store, 1); err != nil {
					t.Fatalf("pristine chain does not load: %v", err)
				} else {
					sameImages(t, c.img, got)
				}
				d.damage(t, c)

				verdict := func(who string, err error, wantRank1 bool) {
					t.Helper()
					if err == nil {
						t.Fatalf("%s succeeded over the damage", who)
					}
					if !strings.Contains(err.Error(), d.want) || (wantRank1 && !strings.Contains(err.Error(), "epoch 1 rank 1")) {
						t.Fatalf("%s verdict %q, want epoch 1 rank 1 and %q", who, err, d.want)
					}
					if d.check != nil {
						d.check(t, c, err.Error())
					}
				}
				_, err := ExtractRankFromStore(c.store, 1, 1)
				verdict("extract", err, true)
				_, err = LoadJobImage(c.store, 1)
				verdict("load", err, !d.rank1Only)
				_, _, err = CompactChain(c.store, 1, nil)
				verdict("compaction", err, !d.rank1Only)

				faults, err := VerifyStore(c.store)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, f := range faults {
					if f.Epoch == 1 && f.Rank == 1 {
						found = true
						verdict("verify", f.Err, false)
					}
				}
				if !found {
					t.Fatalf("store verify did not fault epoch 1 rank 1: %v", faults)
				}
			})
		}
	}
}

// FuzzPartialShardDecode: hostile bytes behind a partial entry — its own
// object, its source object, or the manifest entry itself — must come back
// as an attributed error or a clean decode, and VerifyStore must fault the
// entry exactly then, with the same verdict. Never a panic, and never an
// allocation beyond what the entry states: the manifest (validated, as
// every store read validates it) bounds every buffer the merge makes, and a
// partial object holds no gob of its own — the one gob decoder on the path,
// the shard header at the front of the merged stream, sees only extents
// that passed their CRC-32C, i.e. bytes a writer produced (gob sizes a slice
// from its declared count, 10 MB at a time, so it must never see anything
// else). The fuzzer therefore holds decode to a small multiple of the
// entry's stated sizes however the bytes lie. One target serves both formats
// because one merge does.
func FuzzPartialShardDecode(f *testing.F) {
	type seedChain struct {
		own, src []byte
		man0     *Manifest
		man1     Manifest
	}
	var seeds []seedChain
	for _, chain := range partialChains {
		c := chain.build(f)
		man0, err := c.store.GetManifest(0)
		if err != nil {
			f.Fatal(err)
		}
		own, err := c.store.GetShard(1, 1)
		if err != nil {
			f.Fatal(err)
		}
		src, err := c.store.GetShard(0, 1)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, seedChain{own: own, src: src, man0: man0, man1: *c.man})
	}
	// Corpus: which chain; where and how to damage each object (xor 0xFE
	// truncates there instead); which manifest field to perturb, by how much.
	for chain := range seeds {
		f.Add(uint8(chain), uint32(0), uint8(0), uint32(0), uint8(0), uint8(0), int64(0))
		f.Add(uint8(chain), uint32(40), uint8(0xFF), uint32(0), uint8(0), uint8(0), int64(0))
		f.Add(uint8(chain), uint32(0), uint8(0), uint32(900), uint8(1), uint8(0), int64(0))
		f.Add(uint8(chain), uint32(300), uint8(0xFE), uint32(500), uint8(0xFE), uint8(0), int64(0))
		for field := uint8(1); field <= 12; field++ {
			f.Add(uint8(chain), uint32(0), uint8(0), uint32(0), uint8(0), field, int64(1))
			f.Add(uint8(chain), uint32(7), uint8(3), uint32(0), uint8(0), field, int64(-3))
		}
	}
	damage := func(blob []byte, at uint32, xor uint8) []byte {
		out := append([]byte(nil), blob...)
		if xor == 0xFE {
			return out[:int(at)%len(out)]
		}
		out[int(at)%len(out)] ^= xor
		return out
	}
	f.Fuzz(func(t *testing.T, chain uint8, ownAt uint32, ownXor uint8, srcAt uint32, srcXor uint8, field uint8, delta int64) {
		seed := &seeds[int(chain)%len(seeds)]
		own, src := damage(seed.own, ownAt, ownXor), damage(seed.src, srcAt, srcXor)

		man := seed.man1
		man.Shards = append([]ShardInfo(nil), man.Shards...)
		si := &man.Shards[1]
		si.DeltaPages = append([]int32(nil), si.DeltaPages...)
		si.Chunks = append([]ChunkRef(nil), si.Chunks...)
		pick := func(n int) int { return int(uint64(delta)>>8) % n }
		switch field % 13 {
		case 1:
			si.RawSize += delta
		case 2:
			si.Size += delta
		case 3:
			si.DeltaRawSize += delta
		case 4:
			si.RawSum += uint64(delta)
		case 5:
			si.DeltaRawSum += uint64(delta)
		case 6:
			si.PageSize += delta
		case 7:
			si.BaseEpoch += int(delta)
		case 8:
			if n := len(si.DeltaPages); n > 0 {
				si.DeltaPages[pick(n)] += int32(delta)
			}
		case 9:
			if n := len(si.Chunks); n > 0 {
				si.Chunks[pick(n)].SrcOff += delta
			}
		case 10:
			if n := len(si.Chunks); n > 0 {
				si.Chunks[pick(n)].SrcRank += int(delta)
			}
		case 11:
			if n := len(si.Chunks); n > 1 { // move a boundary: the table still tiles RawSize
				k := pick(n - 1)
				si.Chunks[k].Len += delta
				si.Chunks[k+1].Len -= delta
			}
		case 12:
			si.CodecID += int(delta)
		}
		// Every path to a stored manifest runs validate; what it refuses
		// never reaches the merge.
		rec, err := EncodeManifestRecord(&man)
		if err != nil {
			t.Fatal(err)
		}
		valid, err := DecodeManifestRecord(rec)
		if err != nil {
			return
		}
		si = &valid.Shards[1]
		stated := si.RawSize + si.DeltaRawSize + si.Size + int64(len(own)+len(src))
		if stated > 64<<20 {
			t.Skip() // an entry that honestly states gigabytes may allocate them
		}

		store := NewMemStore()
		for _, err := range []error{
			store.PutManifest(0, seed.man0), putShard(store, 0, 1, src),
			store.PutManifest(1, valid), putShard(store, 1, 1, own),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ri, err := ExtractRankFromStore(store, 1, 1)
		runtime.ReadMemStats(&after)
		if err == nil && ri.Rank != 1 {
			t.Fatalf("clean decode returned rank %d", ri.Rank)
		}
		if err != nil && !strings.Contains(err.Error(), "epoch 1 rank 1") {
			t.Fatalf("error not attributed to the entry: %v", err)
		}
		// Two manifest decodes, two flate windows and a few 32 KiB copy
		// buffers are spent whatever the input; past that fixed floor, memory
		// follows the stated sizes.
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), 3*stated+(4<<20); got > limit {
			t.Fatalf("decode allocated %d bytes for an entry stating %d (limit %d; verdict: %v)", got, stated, limit, err)
		}

		// The store walk, which may read the source from bytes it decoded
		// for another entry, faults the entry exactly when extraction fails,
		// in the same words — but for a source in an unsealed epoch, which
		// the walk states without the entry's name.
		runtime.ReadMemStats(&before)
		faults, verr := VerifyStore(store)
		runtime.ReadMemStats(&after)
		if verr != nil {
			t.Fatalf("verify failed structurally: %v", verr)
		}
		var fault error
		for _, f := range faults {
			if f.Epoch == 1 && f.Rank == 1 {
				fault = f.Err
			}
		}
		if (fault == nil) != (err == nil) {
			t.Fatalf("verify says %v for the entry, extraction %v", fault, err)
		}
		if fault != nil {
			if got, want := fault.Error(), err.Error(); got != want && !(strings.HasPrefix(got, "references epoch") && strings.Contains(want, got)) {
				t.Fatalf("verify says %q for the entry, extraction %q", got, want)
			}
		}
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), 3*stated+(4<<20); got > limit {
			t.Fatalf("verify allocated %d bytes for an entry stating %d (limit %d; faults: %v)", got, stated, limit, faults)
		}
	})
}

// openCountingStore counts OpenShard calls per object, from any number of
// goroutines.
type openCountingStore struct {
	*MemStore
	mu    sync.Mutex
	opens map[[2]int]int
}

func (s *openCountingStore) OpenShard(epoch, rank int) (io.ReadCloser, error) {
	s.mu.Lock()
	s.opens[[2]int{epoch, rank}]++
	s.mu.Unlock()
	return s.MemStore.OpenShard(epoch, rank)
}

// TestMergeOpensEachObjectOnce: a merge opens the entry's own object and
// each source exactly once — the pass that serves an object's extents is the
// one that settles its checksum — under both formats, with an own object
// that fits one staging buffer and one that does not.
func TestMergeOpensEachObjectOnce(t *testing.T) {
	const fresh = shardChunkBytes + 128<<10 // incompressible bytes the large objects store themselves
	big := func() *JobImage {
		img := cdcImage(4, 3)
		img.Images[1].App = noisyBytes(4*fresh, 3)
		return img
	}
	cases := []struct {
		name  string
		large bool
		build func(testing.TB) *partialChain
	}{
		{"page-delta/small", false, partialChains[0].build},
		{"cdc/small", false, partialChains[1].build},
		{"page-delta/large", true, func(t testing.TB) *partialChain {
			c := &partialChain{store: NewMemStore(), img: big()}
			man0, _ := commitPaged(t, c.store, 0, nil, big())
			copy(c.img.Images[1].App, noisyBytes(fresh, 99))
			c.man, _ = commitPaged(t, c.store, 1, man0, c.img)
			return c
		}},
		{"cdc/large", true, func(t testing.TB) *partialChain {
			c := &partialChain{store: NewMemStore(), img: big()}
			man0, _ := commitCDC(t, c.store, 0, nil, big())
			c.img.Images[1].App = insertAt(c.img.Images[1].App, 4096, noisyBytes(fresh, 99))
			c.man, _ = commitCDC(t, c.store, 1, man0, c.img)
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			si := shardOf(t, c.man, 1)
			if !si.Partial() || si.RefEpoch != 1 || (si.Size > shardChunkBytes) != tc.large {
				t.Fatalf("fixture's rank 1 is not the partial object the case needs: format %d in epoch %d, %d stored bytes",
					si.RawFormat, si.RefEpoch, si.Size)
			}
			cs := &openCountingStore{MemStore: c.store, opens: make(map[[2]int]int)}
			ri, err := ExtractRankFromStore(cs, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ri.App, c.img.Images[1].App) {
				t.Fatal("merge restored different bytes")
			}
			want := map[[2]int]int{{1, 1}: 1}
			_, srcs := si.Sources()
			for _, s := range srcs {
				want[[2]int{s.Epoch, s.Rank}] = 1
			}
			if !reflect.DeepEqual(cs.opens, want) {
				t.Fatalf("objects opened %v, want each of %v once", cs.opens, want)
			}
		})
	}
}

// readEntry reads c.si's logical stream through the entry reader, each Read
// handed a fresh buffer of size(r) bytes, until EOF or an error. It returns
// the bytes served, what each Read returned, the error that ended the read
// (nil at EOF) and the reader, still open.
func readEntry(t *testing.T, c *partialChain, size func(r *entryReader) int) (got []byte, ns []int, rerr error, r *entryReader) {
	t.Helper()
	r, err := openEntry(c.store, c.si, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	for {
		p := make([]byte, size(r))
		n, err := r.logical.Read(p)
		got, ns = append(got, p[:n]...), append(ns, n)
		if err == io.EOF {
			return got, ns, nil, r
		}
		if err != nil {
			return got, ns, err, r
		}
	}
}

// TestEntryReaderReadSizes: the entry reader assembles an extent in the
// caller's buffer when it fits, together with the run behind it, and stages
// it otherwise, and the ways serve the same stream. Reads of 1 B, 4 KiB,
// exactly the next extent and the whole stream give the same bytes and the
// same logical XXH64. A buffer that holds the next extent gets, from one
// Read and without the staging buffer being written, that extent and every
// following one that continues the same object's stream, as far as the
// buffer and runBytes allow: clean pages and reused chunks of one source
// come as one run, and an extent of another object ends it even where its
// offset continues the run's. Over a damaged extent — the entry's own, or a sourced one
// inside a run — the in-place read serves the verified extents before it,
// then returns 0 bytes and the staged read's verdict, which names it: no
// byte of it or past it is counted or hashed.
func TestEntryReaderReadSizes(t *testing.T) {
	// A page delta whose first and third pages are dirty: the own object
	// holds the two back to back, so its first extent ends at the offset
	// where the clean second page starts in the base, and the own stream
	// goes on past it. Only the object a run reads from keeps them apart.
	twoDirty := func(t testing.TB) *partialChain {
		c := &partialChain{store: NewMemStore(), img: pagedImage(4, 6), edit: 0}
		man0, _ := commitPaged(t, c.store, 0, nil, pagedImage(4, 6))
		c.img.Images[1].App[c.edit] ^= 0xFF
		c.img.Images[1].App[2*testPageSize] ^= 0xFF
		c.man, _ = commitPaged(t, c.store, 1, man0, c.img)
		return c
	}
	chains := append(partialChains[:len(partialChains):len(partialChains)], struct {
		name  string
		build func(t testing.TB) *partialChain
	}{"page-delta, pages 0 and 2 dirty", twoDirty})
	for _, chain := range chains {
		t.Run(chain.name, func(t *testing.T) {
			c := chain.build(t)
			c.si = shardOf(t, c.man, 1)
			if !c.si.Partial() {
				t.Fatalf("fixture did not store rank 1 as a partial object: %+v", c.si)
			}
			if chain.name == "page-delta, pages 0 and 2 dirty" {
				var ext []extent
				c.si.extents(func(_ int, e extent) { ext = append(ext, e) })
				if !c.si.owns(ext[0]) || c.si.owns(ext[1]) || ext[0].off+ext[0].n != ext[1].off || !c.si.owns(ext[2]) {
					t.Fatalf("fixture's first extents %+v are not own, base, own pages with the base page's offset abutting the first", ext[:3])
				}
			}
			whole := int(c.si.RawSize)
			nextExtent := func(r *entryReader) int { return int(r.ext[min(r.idx, len(r.ext)-1)].n) }
			sizes := []struct {
				name    string
				size    func(*entryReader) int
				inPlace bool // every Read's buffer holds the next extent
				limit   int  // in place: the longest run a buffer holds (0: the next extent alone)
			}{
				{"1 B", func(*entryReader) int { return 1 }, false, 0},
				{"4 KiB", func(*entryReader) int { return 4 << 10 }, false, 0},
				{"one extent", nextExtent, true, 0},
				{"whole stream", func(*entryReader) int { return whole }, true, whole},
			}
			var first []byte
			for _, s := range sizes {
				got, ns, err, r := readEntry(t, c, s.size)
				if err != nil {
					t.Fatalf("%s reads: %v", s.name, err)
				}
				if first == nil {
					first = got
				}
				if !bytes.Equal(got, first) || int64(len(got)) != c.si.RawSize {
					t.Fatalf("%s reads served %d bytes that differ from 1 B reads' %d", s.name, len(got), len(first))
				}
				if sum := r.logical.h.sum64(); sum != c.si.RawSum || Sum64(got) != sum {
					t.Fatalf("%s reads: logical XXH64 %#x over %#x served, want %#x", s.name, sum, Sum64(got), c.si.RawSum)
				}
				if err := r.finish(nil); err != nil {
					t.Fatalf("%s reads: %v", s.name, err)
				}
				if !s.inPlace {
					continue
				}
				if bytes.Count(r.buf, []byte{0}) != len(r.buf) {
					t.Fatalf("%s reads staged an extent in r.buf", s.name)
				}
				runs := checkRuns(t, s.name, r.ext, ns, s.limit)
				if runs == 0 && s.limit > 0 {
					t.Fatalf("%s reads: no Read served more than one extent", s.name)
				}
				t.Logf("%s reads: %d extents in %d Reads, %d of them runs", s.name, len(r.ext), len(ns)-1, runs)
			}

			damages := []struct {
				name   string
				epoch  int // where the damaged extent is stored
				damage func(c *partialChain)
			}{
				{"own extent", 1, func(c *partialChain) {
					bad := c.img.Images[1]
					bad.App = append([]byte(nil), bad.App...)
					bad.App[c.edit] ^= 0x0F
					c.rewriteOwnObject(t, bad)
				}},
				{"sourced extent inside a run", 0, func(c *partialChain) {
					// The entry's table lies about an extent that its
					// neighbours' run passes through.
					var ext []extent
					c.si.extents(func(_ int, e extent) { ext = append(ext, e) })
					for k := 1; k+1 < len(ext); k++ {
						if !c.si.owns(ext[k]) && continues(ext[k-1], ext[k]) && continues(ext[k], ext[k+1]) {
							if len(c.si.Chunks) > 0 {
								c.si.Chunks[k].CRC ^= 1
							} else {
								c.si.PageSums[k] ^= 1
							}
							return
						}
					}
					t.Fatal("fixture has no sourced extent inside a run")
				}},
			}
			for _, d := range damages {
				c := chain.build(t)
				c.si = shardOf(t, c.man, 1)
				d.damage(c)
				_, _, staged, _ := readEntry(t, c, func(*entryReader) int { return 1 })
				got, ns, inPlace, r := readEntry(t, c, func(*entryReader) int { return whole })
				if staged == nil || inPlace == nil || inPlace.Error() != staged.Error() {
					t.Fatalf("damaged %s: in-place read %v, staged read %v; want the same verdict", d.name, inPlace, staged)
				}
				m := regexp.MustCompile(`^extent (\d+) corrupted \(crc [0-9a-f]{8}, want [0-9a-f]{8}; sourced from epoch (\d) rank 1\)$`).FindStringSubmatch(inPlace.Error())
				if m == nil || m[2] != strconv.Itoa(d.epoch) {
					t.Fatalf("damaged %s: verdict %q does not name an extent stored in epoch %d", d.name, inPlace, d.epoch)
				}
				k, _ := strconv.Atoi(m[1])
				var before int64
				for _, e := range r.ext[:k] {
					before += e.n
				}
				if ns[len(ns)-1] != 0 || int64(len(got)) != before || r.logical.n != before || r.logical.h.sum64() != Sum64(got) {
					t.Fatalf("damaged %s: read over extent %d: last Read returned %d, %d bytes served and %d counted, want 0 and %d",
						d.name, k, ns[len(ns)-1], len(got), r.logical.n, before)
				}
			}
		})
	}
}

// continues reports whether extent b picks up its object's stream where a
// ends, so one read can assemble both.
func continues(a, b extent) bool {
	return a.epoch == b.epoch && a.rank == b.rank && a.off+a.n == b.off
}

// checkRuns holds each in-place Read (ns, the last one the 0 at EOF) to one
// run: the extents it served continue one another, and it stopped only where
// the next extent does not continue them or would pass runBytes or limit
// (0: the Read's buffer held only its first extent). It returns how many
// Reads served more than one extent.
func checkRuns(t *testing.T, name string, ext []extent, ns []int, limit int) (runs int) {
	t.Helper()
	k := 0
	for i, n := range ns[:len(ns)-1] {
		start, size := k, int64(0)
		for ; k < len(ext) && size < int64(n); k++ {
			if k > start && !continues(ext[k-1], ext[k]) {
				t.Fatalf("%s reads: Read %d served extent %d, which does not continue extent %d", name, i, k, k-1)
			}
			size += ext[k].n
		}
		if size != int64(n) {
			t.Fatalf("%s reads: Read %d returned %d bytes, not a whole number of extents from extent %d", name, i, n, start)
		}
		if k-start > 1 {
			runs++
			if size > runBytes || size > int64(limit) {
				t.Fatalf("%s reads: Read %d served a %d-byte run, over runBytes or the buffer", name, i, size)
			}
		}
		if k < len(ext) && limit > 0 && continues(ext[k-1], ext[k]) && size+ext[k].n <= min(runBytes, int64(limit)) {
			t.Fatalf("%s reads: Read %d stopped before extent %d, which continues its run and fits", name, i, k)
		}
	}
	if k != len(ext) || ns[len(ns)-1] != 0 {
		t.Fatalf("%s reads: %d Reads served %d of %d extents", name, len(ns)-1, k, len(ext))
	}
	return runs
}
