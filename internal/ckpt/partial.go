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

import (
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

// mergeSource is one distinct object a merge reads extents out of: the
// entry's own object or a source. Extents arrive in roughly ascending offset
// order (own extents and clean pages strictly so; reused chunks except
// around edits), so the object's decompressed stream is read sequentially,
// skipping forward between extents; a backward seek retires the current
// reader instance and reopens from the start.
//
// Integrity: the FIRST instance of each object is its verifying pass — by
// the time the merge finishes, that instance has read the object end to end
// and its stored size and checksum are compared against the object's own
// manifest entry, exactly as a direct load of that shard would. Later
// instances (after a backward seek) skip re-verification — every extent they
// serve is still CRC-checked against the entry's table.
type mergeSource struct {
	name        string // how verdicts name the object
	epoch, rank int
	bi          *ShardInfo // the object's own manifest entry
	rc          io.ReadCloser
	cr          *countReader // rc, counted and hashed: the stored bytes
	dec         io.ReadCloser
	rd          io.Reader // dec, or partialMerge.raw over it: what extents are read from
	pos         int64     // position in the current instance's decompressed stream
	opened      int       // instances opened so far (first one verifies)
	done        bool      // primary verification attempted
	verr        error     // primary verification outcome
}

// partialMerge wires one partial entry's stored objects — its own object at
// si.RefEpoch plus every distinct source — into the reconstructed logical
// stream, reading every extent the same way (readSource). Callers read
// `merged` (CRC-checked extent by extent as it assembles, one extent of
// memory) and then call finish, which drains every object so each checksum
// covers every stored byte. The verdict order: this object's checksum
// mismatch wins (corrupted bytes produce arbitrary downstream failures;
// naming the corrupt object is what matters), then a source's ("source shard
// in epoch N corrupted"), then the caller's decode error, then this object's
// stored-stream identity.
type partialMerge struct {
	store   Store
	si      *ShardInfo
	ext     []extent
	merged  *countReader
	own     *mergeSource
	raw     *countReader            // the own object's decompressed stream, as its first instance read it
	sources map[[2]int]*mergeSource // every object an extent is read from, own included
	mans    map[int]*Manifest       // source-manifest cache

	idx   int // next extent to assemble
	buf   []byte
	avail []byte
	err   error
}

// openPartialMerge opens the entry's own object — so its checksum is settled
// even when no extent is read from it — and derives the extent list; every
// other object opens when an extent first touches it.
func openPartialMerge(store Store, si *ShardInfo) (*partialMerge, error) {
	m := &partialMerge{store: store, si: si,
		own:     &mergeSource{name: "shard", epoch: si.RefEpoch, rank: si.Rank, bi: si},
		sources: make(map[[2]int]*mergeSource), mans: make(map[int]*Manifest)}
	m.sources[[2]int{si.RefEpoch, si.Rank}] = m.own
	if err := m.openSource(m.own); err != nil {
		return nil, err
	}
	m.ext = make([]extent, 0, max(len(si.PageSums), len(si.Chunks)))
	var maxLen int64 = 1
	si.extents(func(_ int, e extent) {
		m.ext = append(m.ext, e)
		maxLen = max(maxLen, e.n)
	})
	m.buf = make([]byte, maxLen)
	m.merged = newCountReader(m)
	return m, nil
}

// sourceInfo resolves a source's manifest entry, requiring it to be a
// physical object whose decompressed stream is addressable by offset.
func (m *partialMerge) sourceInfo(epoch, rank int) (*ShardInfo, error) {
	man := m.mans[epoch]
	if man == nil {
		var err error
		if man, err = m.store.GetManifest(epoch); err != nil {
			return nil, fmt.Errorf("reading source epoch %d manifest: %w", epoch, err)
		}
		m.mans[epoch] = man
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

func (m *partialMerge) openSource(s *mergeSource) error {
	codec, err := codecByID(s.bi.CodecID)
	if err != nil {
		return err
	}
	rc, err := m.store.OpenShard(s.epoch, s.rank)
	if err != nil {
		return fmt.Errorf("opening %s: %w", s.name, err)
	}
	s.rc, s.cr = rc, newCountReader(rc)
	s.dec = codec.NewReader(s.cr)
	s.rd, s.pos = s.dec, 0
	if s == m.own && s.opened == 0 {
		m.raw = newCountReader(s.dec)
		s.rd = m.raw
	}
	s.opened++
	return nil
}

// shut closes the object's current reader instance, if one is open.
func (s *mergeSource) shut() {
	if s.dec != nil {
		s.dec.Close()
		s.rc.Close()
		s.dec, s.rc, s.cr, s.rd = nil, nil, nil, nil
	}
}

// retireSource closes the object's current reader instance. If it is the
// primary one it is first read to EOF and the object's own integrity verdict
// settled: a stored size or checksum mismatch wins over any decompression
// error the drain produced.
func (m *partialMerge) retireSource(s *mergeSource) error {
	if s.dec != nil && s.opened == 1 && !s.done {
		s.done = true
		if _, err := io.Copy(io.Discard, s.rd); err != nil {
			s.verr = fmt.Errorf("decompressing %s: %w", s.name, err)
		}
		if _, err := io.Copy(io.Discard, s.cr); err != nil && s.verr == nil {
			s.verr = fmt.Errorf("reading %s: %w", s.name, err)
		}
		if got := s.cr.h.sum64(); got != s.bi.Checksum || s.cr.n != s.bi.Size {
			s.verr = fmt.Errorf("%s corrupted (checksum %x, want %x)", s.name, got, s.bi.Checksum)
		}
	}
	s.shut()
	return s.verr
}

// readSource reads one extent's bytes out of the decompressed stream of the
// object it is addressed to, opening that object on first touch.
func (m *partialMerge) readSource(e *extent, b []byte) error {
	key := [2]int{e.epoch, e.rank}
	s := m.sources[key]
	if s == nil {
		bi, err := m.sourceInfo(e.epoch, e.rank)
		if err != nil {
			return err
		}
		s = &mergeSource{name: fmt.Sprintf("source shard in epoch %d", e.epoch), epoch: e.epoch, rank: e.rank, bi: bi}
		m.sources[key] = s
	}
	if e.off > s.bi.sourceStreamLen()-e.n {
		return fmt.Errorf("[%d:%d) exceeds %s (%d stream bytes)", e.off, e.off+e.n, s.name, s.bi.sourceStreamLen())
	}
	if s.dec != nil && e.off < s.pos {
		if err := m.retireSource(s); err != nil {
			return err
		}
	}
	if s.dec == nil {
		if err := m.openSource(s); err != nil {
			return err
		}
	}
	if skip := e.off - s.pos; skip > 0 {
		if _, err := io.CopyN(io.Discard, s.rd, skip); err != nil {
			return fmt.Errorf("seeking %s: %w", s.name, err)
		}
		s.pos = e.off
	}
	if _, err := io.ReadFull(s.rd, b); err != nil {
		return fmt.Errorf("reading %s: %w", s.name, err)
	}
	s.pos += e.n
	return nil
}

// fill assembles and verifies the next extent into m.avail: corruption is
// attributed to the exact extent before a byte of it reaches the decoder.
func (m *partialMerge) fill() error {
	if m.idx >= len(m.ext) {
		return io.EOF
	}
	e := &m.ext[m.idx]
	b := m.buf[:e.n]
	if err := m.readSource(e, b); err != nil {
		return fmt.Errorf("extent %d: %w", m.idx, err)
	}
	if got := crc32.Checksum(b, crcTable); got != e.crc {
		return fmt.Errorf("extent %d corrupted (crc %08x, want %08x; sourced from epoch %d rank %d)",
			m.idx, got, e.crc, e.epoch, e.rank)
	}
	m.avail = b
	m.idx++
	return nil
}

// Read serves the reconstructed logical stream (callers go through
// m.merged, which hashes it).
func (m *partialMerge) Read(p []byte) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	for len(m.avail) == 0 {
		if err := m.fill(); err != nil {
			m.err = err
			return 0, err
		}
	}
	n := copy(p, m.avail)
	m.avail = m.avail[n:]
	return n, nil
}

func (m *partialMerge) close() {
	for _, s := range m.sources {
		s.shut()
	}
}

// finish completes every object's primary verification pass — the entry's
// own and each source's, each drained so its checksum covers every stored
// byte — then settles the verdict against decErr, the caller's decode
// result, in the order the type comment gives.
func (m *partialMerge) finish(decErr error) error {
	si := m.si
	if decErr == nil && (m.merged.n != si.RawSize || m.merged.h.sum64() != si.RawSum) {
		decErr = fmt.Errorf("merged stream does not match the manifest identity (got %d bytes sum %#x, want %d bytes sum %#x)",
			m.merged.n, m.merged.h.sum64(), si.RawSize, si.RawSum)
	}
	// This object first, then the sources in (epoch, rank) order, so the
	// verdict is deterministic.
	objs := []*mergeSource{m.own}
	for _, s := range m.sources {
		if s != m.own {
			objs = append(objs, s)
		}
	}
	sources := objs[1:]
	sort.Slice(sources, func(a, b int) bool {
		if sources[a].epoch != sources[b].epoch {
			return sources[a].epoch < sources[b].epoch
		}
		return sources[a].rank < sources[b].rank
	})
	for _, s := range objs {
		// A corruption verdict resurfaces below in verdict order; the first
		// drain error of any kind is kept as the decode-level fallback.
		if err := m.retireSource(s); err != nil && decErr == nil {
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
	if m.raw.n != si.DeltaRawSize || m.raw.h.sum64() != si.DeltaRawSum {
		return fmt.Errorf("stored stream does not match the manifest (raw %d sum %#x; want raw %d sum %#x)",
			m.raw.n, m.raw.h.sum64(), si.DeltaRawSize, si.DeltaRawSum)
	}
	return nil
}

// loadShardPartial reconstructs one partial entry's rank image by streaming
// the merge straight into the shard decoder — one extent of merge memory
// plus one sequential reader per distinct object.
func loadShardPartial(store Store, si *ShardInfo) (*RankImage, error) {
	m, err := openPartialMerge(store, si)
	if err != nil {
		return nil, err
	}
	defer m.close()
	// The bufio layer reads ahead of the header's gob decoder but stays on
	// this side of the merged counter, so the drained count is exact.
	br := getBufReader(m.merged)
	ri, decErr := readShardRaw(br, si.RawSize)
	putBufReader(br)
	if decErr == nil {
		if _, err := io.Copy(io.Discard, m.merged); err != nil {
			decErr = fmt.Errorf("merging extents: %w", err)
		}
	}
	if err := m.finish(decErr); err != nil {
		return nil, err
	}
	return ri, nil
}
