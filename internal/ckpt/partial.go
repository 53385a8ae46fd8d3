package ckpt

// Partial shard objects: the one model behind raw formats 2 and 3.
//
// A partial entry's own object stores only some of its rank's logical
// (RawFormatChunked) stream; the rest already lives in other sealed objects.
// How that stream maps onto stored objects is decided in ONE place,
// ShardInfo.extents, from the manifest entry alone: an ordered list of
// spans tiling the stream, each with its length, its CRC-32C, and either
// "the next bytes of this entry's own payload" or an address (epoch, rank,
// offset) in another object's decompressed stream. Page deltas derive it
// from the page table and dirty set, CDC entries from the chunk table; the
// two formats differ only in that derivation and in the header their object
// carries. Everything downstream — the verified merge (load, VerifyStore,
// compaction), the dependency enumerator (sealed-reference checks, GC
// liveness, read sets, pro-rata pricing, ccimg) — consumes the extent list
// and never asks which format produced it.
//
// Sources are one hop by construction: an address always names an object
// that physically holds the bytes (a full shard, or a CDC object's own
// payload), never another entry's extent list.

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
)

// extent is one span of a partial entry's logical stream.
type extent struct {
	n   int64
	crc uint32 // CRC-32C (Castagnoli) of the span
	// own: the span is the next n bytes of the entry's own object payload.
	// Otherwise it is the n bytes at off in the decompressed stream of the
	// object stored at (epoch, rank).
	own         bool
	epoch, rank int
	off         int64
}

// Partial reports whether the entry's stored object holds only part of its
// logical stream (a page-delta or CDC object) and so decodes through the
// extent merge.
func (si *ShardInfo) Partial() bool {
	return si.RawFormat == RawFormatPageDelta || si.RawFormat == RawFormatCDC
}

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
		dirty := si.DeltaPages
		for k, crc := range si.PageSums {
			off := int64(k) * si.PageSize
			e := extent{n: min(si.PageSize, si.RawSize-off), crc: crc,
				epoch: si.BaseEpoch, rank: si.Rank, off: off}
			if len(dirty) > 0 && int(dirty[0]) == k {
				e.own, e.epoch, dirty = true, si.RefEpoch, dirty[1:]
			}
			visit(k, e)
		}
	case RawFormatCDC:
		for k := range si.Chunks {
			c := &si.Chunks[k]
			visit(k, extent{n: c.Len, crc: c.CRC, epoch: c.SrcEpoch, rank: c.SrcRank, off: c.SrcOff,
				own: c.SrcEpoch == si.RefEpoch && c.SrcRank == si.Rank})
		}
	}
}

// ownRanges lists the extents a partial entry stores itself as spans of its
// logical stream — what the writer copies out of the captured image, and the
// index set (dirty pages, fresh chunks) the object's header repeats.
func (si *ShardInfo) ownRanges() (own []shardRange) {
	var off int64
	si.extents(func(k int, e extent) {
		if e.own {
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
		if e.own {
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

// partialHeader builds the magic and gob header a partial entry's object is
// written with: the index set of the extents it stores (own, from
// ownRanges) plus the geometry that lets tooling read the object without
// its manifest. unit names an extent in commit-time diagnostics.
func partialHeader(si *ShardInfo, own []shardRange) (magic []byte, hdr any, unit string) {
	idx := make([]int32, len(own))
	for k, r := range own {
		idx[k] = int32(r.idx)
	}
	if si.RawFormat == RawFormatPageDelta {
		return shardDeltaMagic, &shardDeltaHeader{Rank: si.Rank, BaseEpoch: si.BaseEpoch,
			PageSize: si.PageSize, RawSize: si.RawSize, Pages: idx}, "page"
	}
	lens := make([]int64, len(si.Chunks))
	for k := range si.Chunks {
		lens[k] = si.Chunks[k].Len
	}
	return shardCDCMagic, &shardCDCHeader{Rank: si.Rank, RawSize: si.RawSize, Chunks: lens, Fresh: idx}, "chunk"
}

// readPartialHeader consumes a partial object's magic and gob header from
// its decompressed stream and checks them against the manifest entry. The
// header repeats the entry's geometry so the object is self-describing;
// loads are driven by the manifest, so any disagreement is an error. This,
// partialHeader and extents are the only places that know which partial
// format they are looking at.
func readPartialHeader(br *bufio.Reader, si *ShardInfo, ext []extent) error {
	var own []int32
	for k := range ext {
		if ext[k].own {
			own = append(own, int32(k))
		}
	}
	readHeader := func(magic []byte, hdr any) error {
		got := make([]byte, len(magic))
		if _, err := io.ReadFull(br, got); err != nil {
			return fmt.Errorf("reading partial-object header: %w", err)
		}
		if !bytes.Equal(got, magic) {
			return fmt.Errorf("partial-object stream has magic %q, want %q", got, magic)
		}
		if err := gob.NewDecoder(newCappedMessageReader(br, si.DeltaRawSize)).Decode(hdr); err != nil {
			return fmt.Errorf("decoding partial-object header: %w", err)
		}
		return nil
	}
	switch si.RawFormat {
	case RawFormatPageDelta:
		var hdr shardDeltaHeader
		if err := readHeader(shardDeltaMagic, &hdr); err != nil {
			return err
		}
		if hdr.Rank != si.Rank || hdr.BaseEpoch != si.BaseEpoch || hdr.PageSize != si.PageSize ||
			hdr.RawSize != si.RawSize || !slices.Equal(hdr.Pages, own) {
			return fmt.Errorf("partial-object header disagrees with the manifest (rank %d, base epoch %d, page size %d, raw %d, %d dirty pages)",
				hdr.Rank, hdr.BaseEpoch, hdr.PageSize, hdr.RawSize, len(hdr.Pages))
		}
	case RawFormatCDC:
		var hdr shardCDCHeader
		if err := readHeader(shardCDCMagic, &hdr); err != nil {
			return err
		}
		agree := hdr.Rank == si.Rank && hdr.RawSize == si.RawSize &&
			len(hdr.Chunks) == len(ext) && slices.Equal(hdr.Fresh, own)
		for k := 0; agree && k < len(ext); k++ {
			agree = hdr.Chunks[k] == ext[k].n
		}
		if !agree {
			return fmt.Errorf("partial-object header disagrees with the manifest (rank %d, raw %d, %d chunks, %d fresh)",
				hdr.Rank, hdr.RawSize, len(hdr.Chunks), len(hdr.Fresh))
		}
	}
	return nil
}

// mergeSource is one distinct object a merge reads extents out of. Extents
// arrive in roughly ascending source order (clean pages strictly so; reused
// chunks except around edits), so the source's decompressed stream is read
// sequentially, skipping forward between extents; a backward seek retires
// the current reader instance and reopens from the start.
//
// Integrity: the FIRST instance of each source is its verifying pass — by
// the time the merge finishes, that instance has read the object end to end
// and its stored checksum is compared against the source's own manifest
// entry, exactly as a direct load of that shard would. Later instances
// (after a backward seek) skip re-verification — every extent they serve is
// still CRC-checked against the entry's table.
type mergeSource struct {
	epoch, rank int
	bi          *ShardInfo // the source's own manifest entry
	rc          io.ReadCloser
	cr          *countReader
	dec         io.ReadCloser
	pos         int64 // position in the current instance's decompressed stream
	opened      int   // instances opened so far (first one verifies)
	done        bool  // primary verification attempted
	verr        error // primary verification outcome
}

// partialMerge wires one partial entry's stored objects — its own object at
// si.RefEpoch plus every distinct source — into the reconstructed logical
// stream. Callers read `merged` (CRC-checked extent by extent as it
// assembles, one extent of memory) and then call finish, which drains every
// object so each checksum covers every stored byte. The verdict order: this
// object's checksum mismatch wins (corrupted bytes produce arbitrary
// downstream failures; naming the corrupt object is what matters) and is
// settled by open before a byte of the object is interpreted, then a
// source's ("source shard in epoch N corrupted"), then the caller's decode
// error, then the stored-stream identity.
type partialMerge struct {
	store   Store
	si      *ShardInfo
	ext     []extent
	merged  *countReader
	objSize int64         // own object's stored bytes, counted by the checksum pass
	dRaw    *countReader  // own object's decompressed stream
	payload *bufio.Reader // dRaw past the header; pooled, released by close
	closers []io.Closer
	sources map[[2]int]*mergeSource
	mans    map[int]*Manifest // source-manifest cache

	idx   int // next extent to assemble
	buf   []byte
	avail []byte
	err   error
}

// openCheckedObject reads the entry's own object end to end, settles its
// stored checksum and returns its byte count and a reader at its first byte:
// over the checked bytes if they fit one staging buffer, else a second open.
func openCheckedObject(store Store, si *ShardInfo) (io.ReadCloser, int64, error) {
	rc, err := store.OpenShard(si.RefEpoch, si.Rank)
	if err != nil {
		return nil, 0, err
	}
	cr := newCountReader(rc)
	var held bytes.Buffer
	if si.Size > 0 && si.Size <= shardChunkBytes {
		held.Grow(int(si.Size) + bytes.MinRead)
		_, err = held.ReadFrom(io.LimitReader(cr, si.Size))
	}
	if err == nil {
		_, err = io.Copy(io.Discard, cr)
	}
	rc.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("reading shard: %w", err)
	}
	if got := cr.h.sum64(); got != si.Checksum {
		return nil, 0, fmt.Errorf("shard corrupted (checksum %x, want %x)", got, si.Checksum)
	}
	if int64(held.Len()) == cr.n {
		return io.NopCloser(&held), cr.n, nil
	}
	rc, err = store.OpenShard(si.RefEpoch, si.Rank)
	return rc, cr.n, err
}

// openPartialMerge settles the own object's checksum, then opens it and
// checks its header; sources open lazily as extents first touch them. The
// checksum pass comes first because the header is a gob message: gob sizes a
// slice from its declared count before reading an element (up to 10 MB a
// slice), so a damaged header must be named as corruption before it is
// decoded, not after. A partial object is the small side of its entry, so
// the pass usually keeps it and the decode reads the checked bytes. A header
// that cannot be trusted past that is settled through finish like any other
// decode error.
func openPartialMerge(store Store, si *ShardInfo) (*partialMerge, error) {
	codec, err := codecByID(si.CodecID)
	if err != nil {
		return nil, err
	}
	rc, objSize, err := openCheckedObject(store, si)
	if err != nil {
		return nil, err
	}
	m := &partialMerge{store: store, si: si, objSize: objSize,
		sources: make(map[[2]int]*mergeSource), mans: make(map[int]*Manifest)}
	m.ext = make([]extent, 0, max(len(si.PageSums), len(si.Chunks)))
	var maxLen int64 = 1
	si.extents(func(_ int, e extent) {
		m.ext = append(m.ext, e)
		maxLen = max(maxLen, e.n)
	})
	dec := codec.NewReader(rc)
	m.closers = []io.Closer{rc, dec}
	m.dRaw = newCountReader(dec)
	m.payload = getBufReader(m.dRaw)
	if err := readPartialHeader(m.payload, si, m.ext); err != nil {
		err = m.finish(err)
		m.close()
		return nil, err
	}
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

// sourceStreamLen is the length of a physical object's decompressed stored
// stream — the space source offsets index: the logical stream for a full
// chunked shard, the stored stream (header + fresh payloads) for a CDC
// object.
func (si *ShardInfo) sourceStreamLen() int64 {
	if si.RawFormat == RawFormatCDC {
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
		return fmt.Errorf("opening source shard in epoch %d: %w", s.epoch, err)
	}
	s.rc = rc
	s.cr = newCountReader(rc)
	s.dec = codec.NewReader(s.cr)
	s.pos = 0
	s.opened++
	return nil
}

// retireSource closes the source's current reader instance. If it is the
// primary one it is first read to EOF and the source object's own integrity
// verdict settled: a stored-checksum mismatch wins over any decompression
// error the drain produced.
func (m *partialMerge) retireSource(s *mergeSource) error {
	if s.dec == nil {
		return nil
	}
	if s.opened == 1 && !s.done {
		s.done = true
		if _, err := io.Copy(io.Discard, s.dec); err != nil {
			s.verr = fmt.Errorf("decompressing source shard in epoch %d: %w", s.epoch, err)
		}
		if _, err := io.Copy(io.Discard, s.cr); err != nil && s.verr == nil {
			s.verr = fmt.Errorf("reading source shard in epoch %d: %w", s.epoch, err)
		}
		if got := s.cr.h.sum64(); got != s.bi.Checksum || s.cr.n != s.bi.Size {
			s.verr = fmt.Errorf("source shard in epoch %d corrupted (checksum %x, want %x)",
				s.epoch, got, s.bi.Checksum)
		}
	}
	s.dec.Close()
	s.rc.Close()
	s.dec, s.rc, s.cr = nil, nil, nil
	return s.verr
}

// readSource reads one sourced extent's bytes out of its object's
// decompressed stream.
func (m *partialMerge) readSource(e *extent, b []byte) error {
	key := [2]int{e.epoch, e.rank}
	s := m.sources[key]
	if s == nil {
		bi, err := m.sourceInfo(e.epoch, e.rank)
		if err != nil {
			return err
		}
		s = &mergeSource{epoch: e.epoch, rank: e.rank, bi: bi}
		m.sources[key] = s
	}
	if e.off > s.bi.sourceStreamLen()-e.n {
		return fmt.Errorf("[%d:%d) exceeds source shard in epoch %d (%d stream bytes)",
			e.off, e.off+e.n, s.epoch, s.bi.sourceStreamLen())
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
		if _, err := io.CopyN(io.Discard, s.dec, skip); err != nil {
			return fmt.Errorf("seeking source shard in epoch %d: %w", s.epoch, err)
		}
		s.pos = e.off
	}
	if _, err := io.ReadFull(s.dec, b); err != nil {
		return fmt.Errorf("reading source shard in epoch %d: %w", s.epoch, err)
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
	if e.own {
		if _, err := io.ReadFull(m.payload, b); err != nil {
			return fmt.Errorf("reading extent %d: %w", m.idx, err)
		}
	} else if err := m.readSource(e, b); err != nil {
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
		if s.dec != nil {
			s.dec.Close()
			s.rc.Close()
			s.dec, s.rc, s.cr = nil, nil, nil
		}
	}
	for i := len(m.closers) - 1; i >= 0; i-- {
		m.closers[i].Close()
	}
	if m.payload != nil {
		putBufReader(m.payload)
		m.payload = nil
	}
}

// finish drains the entry's own decompressed stream and completes every
// source's primary verification pass, then settles the verdict against
// decErr, the caller's decode result, in the order the type comment gives.
func (m *partialMerge) finish(decErr error) error {
	si := m.si
	if decErr == nil && (m.merged.n != si.RawSize || m.merged.h.sum64() != si.RawSum) {
		decErr = fmt.Errorf("merged stream does not match the manifest identity (got %d bytes sum %#x, want %d bytes sum %#x)",
			m.merged.n, m.merged.h.sum64(), si.RawSize, si.RawSum)
	}
	if _, err := io.Copy(io.Discard, m.dRaw); err != nil && decErr == nil {
		decErr = fmt.Errorf("decompressing shard: %w", err)
	}
	// Sources settle in (epoch, rank) order so the verdict is deterministic.
	sources := make([]*mergeSource, 0, len(m.sources))
	for _, s := range m.sources {
		sources = append(sources, s)
	}
	sort.Slice(sources, func(a, b int) bool {
		if sources[a].epoch != sources[b].epoch {
			return sources[a].epoch < sources[b].epoch
		}
		return sources[a].rank < sources[b].rank
	})
	for _, s := range sources {
		// A corruption verdict resurfaces below in verdict order; the first
		// drain error of any kind is kept as the decode-level fallback.
		if err := m.retireSource(s); err != nil && decErr == nil {
			decErr = err
		}
	}
	for _, s := range sources {
		if s.verr != nil {
			return s.verr
		}
	}
	if decErr != nil {
		return decErr
	}
	if m.objSize != si.Size || m.dRaw.n != si.DeltaRawSize || m.dRaw.h.sum64() != si.DeltaRawSum {
		return fmt.Errorf("stored stream does not match the manifest (stored %d bytes, raw %d sum %#x; want %d, raw %d sum %#x)",
			m.objSize, m.dRaw.n, m.dRaw.h.sum64(), si.Size, si.DeltaRawSize, si.DeltaRawSum)
	}
	return nil
}

// loadShardPartial reconstructs one partial entry's rank image by streaming
// the merge straight into the shard decoder — one extent of merge memory
// plus one sequential reader per distinct source object.
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
