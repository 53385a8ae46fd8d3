package ckpt

// Partial shard objects: the one model behind raw formats 2 and 3.
//
// A partial entry's own object stores only some of its rank's logical
// (RawFormatChunked) stream; the rest already lives in other sealed objects.
// How that stream maps onto stored objects is decided in ONE place,
// ShardInfo.extents, from the manifest entry alone: an ordered list of
// spans tiling the stream, each with its length, its CRC-32C and an address
// (epoch, rank, offset) in some object's decompressed stream. The entry's
// own object at (RefEpoch, Rank) is nothing but the extents addressed to
// it, back to back in index order — no magic, no header — so "own" is an
// address equality and its bytes are a function of the captured state
// alone. Page deltas derive the list from the page table and dirty set, CDC
// entries from the chunk table; that derivation is the only place the two
// formats differ. Everything downstream — the verified merge (load,
// VerifyStore, compaction), the dependency enumerator (sealed-reference
// checks, GC liveness, read sets, pro-rata pricing, ccimg) — consumes the
// extent list and never asks which format produced it.
//
// Sources are one hop by construction: an address always names an object
// that physically holds the bytes (a full shard, or a partial entry's own
// object), never another entry's extent list.
//
// The same file holds the one reader of every manifest entry (entryReader):
// a partial entry is the extent merge, and a full shard the degenerate case
// whose logical stream is its own object's decoded stream, with no extents.

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
)

// extent is one span of a partial entry's logical stream: the n bytes at off
// in the decompressed stream of the object stored at (epoch, rank).
type extent struct {
	n           int64
	crc         uint32 // CRC-32C (Castagnoli) of the span
	epoch, rank int
	off         int64
}

// Partial reports whether the entry's stored object holds only part of its
// logical stream (a page-delta or CDC object) and so decodes through the
// extent merge.
func (si *ShardInfo) Partial() bool {
	return si.RawFormat == RawFormatPageDelta || si.RawFormat == RawFormatCDC
}

// owns reports whether e is addressed to the entry's own object.
func (si *ShardInfo) owns(e extent) bool { return e.epoch == si.RefEpoch && e.rank == si.Rank }

// extents derives the ordered extent list of a partial entry's logical
// stream, visiting each extent with its index; nothing for a full shard. It
// builds no list, so commit-side callers allocate nothing in the page or
// chunk count. Manifest.validate has already established that the page or
// chunk table tiles RawSize and that DeltaPages is sorted, unique and in
// range.
func (si *ShardInfo) extents(visit func(k int, e extent)) {
	switch si.RawFormat {
	case RawFormatPageDelta:
		// Clean page k is the base's bytes at k*PageSize: the base is a full
		// shard of the same length, so logical and stored offsets coincide.
		// The j-th dirty page is the own object's bytes at j*PageSize: only
		// the stream's last page can be short, and it is last there too.
		dirty := si.DeltaPages
		for k, crc := range si.PageSums {
			off := int64(k) * si.PageSize
			e := extent{n: min(si.PageSize, si.RawSize-off), crc: crc, epoch: si.BaseEpoch, rank: si.Rank, off: off}
			if len(dirty) > 0 && int(dirty[0]) == k {
				j := len(si.DeltaPages) - len(dirty)
				e.epoch, e.off, dirty = si.RefEpoch, int64(j)*si.PageSize, dirty[1:]
			}
			visit(k, e)
		}
	case RawFormatCDC:
		for k := range si.Chunks {
			c := &si.Chunks[k]
			visit(k, extent{n: c.Len, crc: c.CRC, epoch: c.SrcEpoch, rank: c.SrcRank, off: c.SrcOff})
		}
	}
}

// ownRanges lists the extents a partial entry stores itself as spans of its
// logical stream — what the writer copies out of the captured image, in the
// order its own object holds them.
func (si *ShardInfo) ownRanges() (own []shardRange) {
	var off int64
	si.extents(func(k int, e extent) {
		if si.owns(e) {
			own = append(own, shardRange{idx: k, off: off, n: e.n, crc: e.crc})
		}
		off += e.n
	})
	return own
}

// ShardSource is one stored object, other than the entry's own, that a
// partial entry's logical stream is assembled from.
type ShardSource struct {
	Epoch, Rank int
	// Bytes is how much of the entry's logical stream is read from it.
	Bytes int64
	// Size is the object's stored size when the entry records it (a page
	// delta's BaseSize), zero otherwise. Read pricing charges a source of
	// known size as the whole object and any other by the bytes drawn.
	Size int64
}

// Sources enumerates where an entry's logical bytes live: own is how many
// sit in its own object at RefEpoch (all RawSize of them for a full shard),
// others the distinct further objects the rest is drawn from, ordered by
// (epoch, rank). It is the single dependency view of a manifest entry:
// whatever must stay sealed, alive and priced for the entry to load is
// RefEpoch plus exactly these.
func (si *ShardInfo) Sources() (own int64, others []ShardSource) {
	if !si.Partial() {
		return si.RawSize, nil
	}
	si.extents(func(_ int, e extent) {
		if si.owns(e) {
			own += e.n
			return
		}
		// Distinct sources are few (one for a page delta, the chain's depth
		// for a chunk table): a scan beats a map.
		i := slices.IndexFunc(others, func(s ShardSource) bool { return s.Epoch == e.epoch && s.Rank == e.rank })
		if i < 0 {
			i = len(others)
			others = append(others, ShardSource{Epoch: e.epoch, Rank: e.rank})
			if e.epoch == si.BaseEpoch && e.rank == si.Rank {
				others[i].Size = si.BaseSize
			}
		}
		others[i].Bytes += e.n
	})
	sort.Slice(others, func(a, b int) bool {
		if others[a].Epoch != others[b].Epoch {
			return others[a].Epoch < others[b].Epoch
		}
		return others[a].Rank < others[b].Rank
	})
	return own, others
}

// paddedShare prices `part` of the entry's RawSize logical bytes against a
// padded per-rank image size: the whole stream is the whole padded size, a
// fraction of it that fraction. Both sides of the model — WriteBytesOf and
// ReadSetOf — use this one expression.
func (si *ShardInfo) paddedShare(padded, part int64) int64 {
	if part >= si.RawSize {
		return padded
	}
	return padded * part / si.RawSize
}

// mergeSource is one stored object an entry's logical stream is read out of:
// the entry's own object or a source. Extents arrive in roughly ascending
// offset order (own extents and clean pages strictly so; reused chunks
// except around edits), so the object's decompressed stream is read
// sequentially, skipping forward between extents; a backward seek retires
// the current reader instance and reopens from the start.
//
// Integrity: the FIRST instance of each object is its verifying pass — by
// the time the read finishes, that instance has read the object end to end
// and its stored size and checksum are compared against the object's own
// manifest entry, exactly as a direct load of that shard would. Later
// instances (after a backward seek) skip re-verification — every extent they
// serve is still CRC-checked against the entry's table.
//
// An object a store walk holds (heldObject) is read from its decoded bytes
// instead, seeking by address, and its verdict is the walk's: it was
// checked end to end against its own entry when it was decoded.
type mergeSource struct {
	name        string // how verdicts name the object
	epoch, rank int
	bi          *ShardInfo // the object's own manifest entry
	held        *heldObject
	hr          heldReader // held's decoded stream, at pos
	rc          io.ReadCloser
	cr          countReader // rc, counted and hashed: the stored bytes
	dec         io.ReadCloser
	rd          io.Reader // dec or &hr, or entryReader.raw over it: what extents are read from
	pos         int64     // position in the current instance's decompressed stream
	opened      int       // instances opened so far (first one verifies)
	done        bool      // primary verification attempted
	verr        error     // primary verification outcome
}

// entryReader is the one reader of a manifest entry's logical stream: load,
// VerifyStore, extraction and compaction all read through it. A full
// shard's logical stream is its own object's decoded stream, read straight
// through. A partial entry's is assembled from its own object at
// si.RefEpoch plus every distinct source, reading every extent the same way
// (fill) and CRC-checking it as it assembles: in the caller's buffer when
// the extent fits there — with the run of extents that continue its
// object's stream behind it, in one read the decoder writes straight into
// that buffer — else in one extent of staging memory.
// Callers read `logical` and then call finish, which drains every object so
// each checksum covers every stored byte. The verdict order: this object's
// stored size or checksum mismatch wins (corrupted bytes produce arbitrary
// downstream failures; naming the corrupt object is what matters), then a
// source's ("source shard in epoch N corrupted"), then the caller's decode
// error, then the logical length. Only a partial entry then checks the
// merged stream's RawSum and its own stored stream's identity: a full
// shard's object checksum already covers its stream.
type entryReader struct {
	store   Store
	walk    *storeWalk // what a store walk has read already; nil outside one
	si      *ShardInfo
	logical *countReader // what callers read: &raw for a full shard, the hashed merge for a partial one
	own     mergeSource
	raw     countReader // the own object's decompressed stream, as its first instance read it

	// A partial entry's merge state; unused for a full shard.
	ext     []extent
	sources map[[2]int]*mergeSource // every object an extent is read from, own included
	mans    map[int]*Manifest       // source-manifest cache
	idx     int                     // next extent to assemble
	buf     []byte                  // stages an extent for reads shorter than it
	avail   []byte                  // the staged extent's bytes not yet served
	err     error
}

// openEntry opens the entry's own object — so its checksum is settled even
// when a partial entry reads no extent from it — and, for a partial entry,
// derives the extent list; every other object opens when an extent first
// touches it. Objects walk holds are read from its bytes; walk may be nil.
func openEntry(store Store, si *ShardInfo, walk *storeWalk) (*entryReader, error) {
	r := &entryReader{store: store, walk: walk, si: si,
		own: mergeSource{name: "shard", epoch: si.RefEpoch, rank: si.Rank, bi: si,
			held: walk.holding(si.RefEpoch, si.Rank, si)}}
	if err := r.openSource(&r.own); err != nil {
		return nil, err
	}
	if !si.Partial() {
		r.logical = &r.raw
		return r, nil
	}
	r.sources = map[[2]int]*mergeSource{{si.RefEpoch, si.Rank}: &r.own}
	r.mans = make(map[int]*Manifest)
	r.ext = make([]extent, 0, max(len(si.PageSums), len(si.Chunks)))
	var maxLen int64 = 1
	si.extents(func(_ int, e extent) {
		r.ext = append(r.ext, e)
		maxLen = max(maxLen, e.n) // validate bounds pages and chunks by CDCMaxChunkBytes
	})
	r.buf = make([]byte, maxLen)
	r.logical = newCountReader(r)
	return r, nil
}

// sourceInfo resolves a source's manifest entry, requiring it to be a
// physical object whose decompressed stream is addressable by offset.
func (r *entryReader) sourceInfo(epoch, rank int) (*ShardInfo, error) {
	man, err := r.walk.manifest(epoch)
	if man == nil && err == nil {
		if man = r.mans[epoch]; man == nil {
			man, err = r.store.GetManifest(epoch)
			r.mans[epoch] = man
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading source epoch %d manifest: %w", epoch, err)
	}
	if rank < 0 || rank >= len(man.Shards) {
		return nil, fmt.Errorf("source epoch %d has no rank %d", epoch, rank)
	}
	bi := &man.Shards[rank] // validate enforces shard i == rank i
	if bi.RefEpoch != epoch {
		return nil, fmt.Errorf("source epoch %d rank %d is a reference into epoch %d (sources must be physical objects)",
			epoch, rank, bi.RefEpoch)
	}
	if bi.RawFormat != RawFormatChunked && bi.RawFormat != RawFormatCDC {
		return nil, fmt.Errorf("source epoch %d rank %d has format %d (not addressable by offset)",
			epoch, rank, bi.RawFormat)
	}
	return bi, nil
}

// sourceStreamLen is the length of an object's decompressed stored stream —
// the space extent offsets index: the logical stream for a full shard, the
// own extents' bytes for a partial object.
func (si *ShardInfo) sourceStreamLen() int64 {
	if si.Partial() {
		return si.DeltaRawSize
	}
	return si.RawSize
}

func (r *entryReader) openSource(s *mergeSource) error {
	if s.held != nil {
		s.hr, s.rd = s.held.readerAt(0), &s.hr
	} else {
		codec, err := codecByID(s.bi.CodecID)
		if err != nil {
			return err
		}
		rc, err := r.store.OpenShard(s.epoch, s.rank)
		if err != nil {
			return fmt.Errorf("opening %s: %w", s.name, err)
		}
		s.rc, s.cr = rc, countReader{src: rc, h: newXXH64(), hash: true}
		s.dec = codec.NewReader(&s.cr)
		s.rd = s.dec
	}
	s.pos = 0
	if s == &r.own && s.opened == 0 {
		// A held object's stream identity is the walk's: hashing it again
		// would check nothing.
		r.raw = countReader{src: s.rd, h: newXXH64(), hash: r.si.Partial() && s.held == nil}
		s.rd = &r.raw
	}
	s.opened++
	return nil
}

// shut closes the object's current reader instance, if one is open.
func (s *mergeSource) shut() {
	if s.dec != nil {
		s.dec.Close()
		s.rc.Close()
		s.dec, s.rc, s.rd = nil, nil, nil
	}
}

// retireSource closes the object's current reader instance. If it is the
// primary one it is first read to EOF and the object's own integrity verdict
// settled: a stored size or checksum mismatch wins over any decompression
// error the drain produced.
func (r *entryReader) retireSource(s *mergeSource) error {
	if s.held != nil {
		if !s.done && s.opened > 0 {
			s.done, s.verr = true, s.held.verdict(s.name, s.bi)
		}
		return s.verr
	}
	if s.dec != nil && s.opened == 1 && !s.done {
		s.done = true
		if _, err := io.Copy(io.Discard, s.rd); err != nil {
			s.verr = fmt.Errorf("decompressing %s: %w", s.name, err)
		}
		if _, err := io.Copy(io.Discard, &s.cr); err != nil && s.verr == nil {
			s.verr = fmt.Errorf("reading %s: %w", s.name, err)
		}
		if got := s.cr.h.sum64(); got != s.bi.Checksum {
			s.verr = fmt.Errorf("%s corrupted (checksum %x, want %x)", s.name, got, s.bi.Checksum)
		} else if s.cr.n != s.bi.Size {
			s.verr = fmt.Errorf("%s corrupted (%d stored bytes, want %d)", s.name, s.cr.n, s.bi.Size)
		}
	}
	s.shut()
	return s.verr
}

// runBytes caps the bytes fill assembles with one read, so that the
// per-extent CRC-32C and then the caller's logical XXH64 read them while
// they are still in cache. Extracting a 16 MiB rank through a page delta
// or a chunk table took the same time with caps from 256 KiB to 2 MiB
// (2 MiB of L2), and longer from 4 MiB on; the inflate reads these runs
// land in are direct from 128 KiB (inflate's directMin).
const runBytes = 512 << 10

// source resolves the object extent e is addressed to, without opening it,
// and checks that e lies inside its stream.
func (r *entryReader) source(e *extent) (*mergeSource, error) {
	key := [2]int{e.epoch, e.rank}
	s := r.sources[key]
	if s == nil {
		bi, err := r.sourceInfo(e.epoch, e.rank)
		if err != nil {
			return nil, err
		}
		s = &mergeSource{name: fmt.Sprintf("source shard in epoch %d", e.epoch), epoch: e.epoch, rank: e.rank, bi: bi,
			held: r.walk.holding(e.epoch, e.rank, bi)}
		r.sources[key] = s
	}
	if e.off > s.bi.sourceStreamLen()-e.n {
		return nil, fmt.Errorf("[%d:%d) exceeds %s (%d stream bytes)", e.off, e.off+e.n, s.name, s.bi.sourceStreamLen())
	}
	return s, nil
}

// seek positions s's decompressed stream at off, opening the object on
// first touch and reopening it to go back; a held object is addressed.
func (r *entryReader) seek(s *mergeSource, off int64) error {
	if s.held != nil {
		if s.opened == 0 {
			if err := r.openSource(s); err != nil {
				return err
			}
		}
		s.hr, s.pos = s.held.readerAt(off), off
		return nil
	}
	if s.dec != nil && off < s.pos {
		if err := r.retireSource(s); err != nil {
			return err
		}
	}
	if s.dec == nil {
		if err := r.openSource(s); err != nil {
			return err
		}
	}
	if skip := off - s.pos; skip > 0 {
		if _, err := io.CopyN(io.Discard, s.rd, skip); err != nil {
			return fmt.Errorf("seeking %s: %w", s.name, err)
		}
		s.pos = off
	}
	return nil
}

// fill assembles into b the next extent and the run behind it — the
// following extents that continue the same object's stream where the last
// ended, as far as b and runBytes allow — with one read, then verifies them
// in order: corruption is attributed to the exact extent before a byte of
// it is counted as read. It returns the length of the verified prefix,
// which ends at the first failure; that failure is kept in r.err. b must
// hold the next extent.
func (r *entryReader) fill(b []byte) int {
	first := &r.ext[r.idx]
	s, err := r.source(first)
	if err == nil {
		err = r.seek(s, first.off)
	}
	if err != nil {
		r.err = fmt.Errorf("extent %d: %w", r.idx, err)
		return 0
	}
	end, size := r.idx+1, int(first.n)
	for ; end < len(r.ext); end++ {
		e := &r.ext[end]
		if e.epoch != first.epoch || e.rank != first.rank || e.off != first.off+int64(size) ||
			size+int(e.n) > min(len(b), runBytes) || e.off > s.bi.sourceStreamLen()-e.n {
			break
		}
		size += int(e.n)
	}
	got := 0
	for got < size && err == nil {
		var n int
		n, err = s.rd.Read(b[got:size])
		got += n
	}
	s.pos += int64(got)
	off := 0
	for ; r.idx < end; r.idx++ {
		e := &r.ext[r.idx]
		if off+int(e.n) > got { // the read stopped inside this extent
			if err == io.EOF && off < got {
				err = io.ErrUnexpectedEOF // as io.ReadFull of this extent alone says
			}
			r.err = fmt.Errorf("extent %d: reading %s: %w", r.idx, s.name, err)
			break
		}
		if c := crc32.Checksum(b[off:off+int(e.n)], crcTable); c != e.crc {
			r.err = fmt.Errorf("extent %d corrupted (crc %08x, want %08x; sourced from epoch %d rank %d)",
				r.idx, c, e.crc, e.epoch, e.rank)
			break
		}
		off += int(e.n)
	}
	return off
}

// Read serves a partial entry's merged logical stream (callers go through
// r.logical, which hashes it). When the next extent fits p, it and the run
// behind it are assembled and checked in p itself, so they land once; p
// then holds their bytes, counted as read, up to the first that failed its
// CRC. A shorter read is served from one extent staged in r.buf.
func (r *entryReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if len(r.avail) == 0 {
		if r.idx >= len(r.ext) {
			r.err = io.EOF
			return 0, io.EOF
		}
		n := r.ext[r.idx].n
		if n <= int64(len(p)) {
			if m := r.fill(p); m > 0 {
				return m, nil
			}
			return 0, r.err
		}
		if r.fill(r.buf[:n]) == 0 {
			return 0, r.err
		}
		r.avail = r.buf[:n]
	}
	n := copy(p, r.avail)
	r.avail = r.avail[n:]
	return n, nil
}

func (r *entryReader) close() {
	r.own.shut()
	for _, s := range r.sources {
		s.shut()
	}
}

// finish completes every object's primary verification pass — the entry's
// own and each source's, each drained so its checksum covers every stored
// byte — then settles the verdict against decErr, the caller's decode
// result, in the order the type comment gives.
func (r *entryReader) finish(decErr error) error {
	si := r.si
	// This object first, then the sources in (epoch, rank) order, so the
	// verdict is deterministic.
	var first [4]*mergeSource
	objs := append(first[:0], &r.own)
	for _, s := range r.sources {
		if s != &r.own {
			objs = append(objs, s)
		}
	}
	slices.SortFunc(objs[1:], func(a, b *mergeSource) int {
		if c := cmp.Compare(a.epoch, b.epoch); c != 0 {
			return c
		}
		return cmp.Compare(a.rank, b.rank)
	})
	for _, s := range objs {
		// A corruption verdict resurfaces below in verdict order; the first
		// drain error of any kind is kept as the decode-level fallback.
		if err := r.retireSource(s); err != nil && decErr == nil {
			decErr = err
		}
	}
	for _, s := range objs {
		if s.verr != nil {
			return s.verr
		}
	}
	if decErr != nil {
		return decErr
	}
	if r.logical.n != si.RawSize {
		return fmt.Errorf("raw size mismatch: decompressed %d bytes, manifest says %d", r.logical.n, si.RawSize)
	}
	if !si.Partial() {
		return nil
	}
	if got := r.logical.h.sum64(); got != si.RawSum {
		return fmt.Errorf("merged stream does not match the manifest identity (sum %#x, want %#x)", got, si.RawSum)
	}
	rawN, rawSum := r.raw.n, r.raw.h.sum64()
	if h := r.own.held; h != nil { // the walk checked its stream against h.bi
		rawN, rawSum = h.bi.DeltaRawSize, h.bi.DeltaRawSum
	}
	if rawN != si.DeltaRawSize || rawSum != si.DeltaRawSum {
		return fmt.Errorf("stored stream does not match the manifest (raw %d sum %#x; want raw %d sum %#x)",
			rawN, rawSum, si.DeltaRawSize, si.DeltaRawSum)
	}
	return nil
}

// countReader counts everything read through it and, when made by
// newCountReader, accumulates its XXH64 checksum.
type countReader struct {
	src  io.Reader
	h    xxh64
	n    int64
	hash bool
}

func newCountReader(src io.Reader) *countReader {
	return &countReader{src: src, h: newXXH64(), hash: true}
}

func (r *countReader) Read(p []byte) (int, error) {
	n, err := r.src.Read(p)
	if r.hash {
		r.h.write(p[:n])
	}
	r.n += int64(n)
	return n, err
}
