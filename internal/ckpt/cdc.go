package ckpt

// Content-defined chunking (raw format 3).
//
// Page deltas (raw format 2) are strictly positional: one inserted byte
// shifts every later page and the CRC diff sees a fully dirty shard. CDC
// mode instead splits each rank's LOGICAL chunked stream on content-defined
// boundaries found by a Gear rolling hash — the FastCDC family — so an
// insertion or deletion only perturbs boundaries near the edit and every
// later chunk keeps its content hash. Commit then consults a
// content-addressed index of every chunk the parent chain already stores
// (built from the parent manifests' chunk tables alone — no object reads)
// and a changed rank stores only the chunks whose content is new, as a
// RawFormatCDC object:
//
//	magic "MANASHD3" | gob(shardCDCHeader) | fresh chunk payloads, in
//	chunk-index order
//
// The manifest entry carries the FULL chunk table (ShardInfo.Chunks): per
// chunk its length, CRC-32C, FNV-1a content hash, and the (SrcEpoch,
// SrcRank, SrcOff) address of its bytes inside a physically stored object's
// decompressed stream. Fresh chunks point into this object (header offset +
// cumulative fresh lengths); reused chunks copy their source address
// verbatim from the parent table, so chains never deepen — restart resolves
// every chunk in one hop, opening each distinct source object once and
// reading it sequentially.
//
// The same dual-identity contract as page deltas applies: RawSum/RawSize
// always describe the logical stream (the reuse key), Size/Checksum the
// stored object, and DeltaRawSize/DeltaRawSum the stored stream between the
// codec and the object (reused field names — the geometry is identical).

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Chunk size bounds. The target is the mean spacing of gear boundary
// candidates (one per 2^16 bytes at the 16-bit mask); the floor skips
// candidates that would make chunks too small to be worth indexing and the
// ceiling forces a cut through candidate-free data, so every chunk is in
// [CDCMinChunkBytes, CDCMaxChunkBytes] except a stream's trailing chunk,
// which may be shorter than the floor.
const (
	CDCMinChunkBytes    = 8 << 10
	CDCTargetChunkBytes = 64 << 10
	CDCMaxChunkBytes    = 128 << 10

	// cdcBoundaryMask selects boundary candidates: a cut is allowed after
	// any byte where the rolling hash's low bits vanish. Mask width sets
	// the candidate density (2^-16 per byte = one per target size).
	cdcBoundaryMask = uint64(CDCTargetChunkBytes - 1)
)

// gearTable drives the rolling hash: h = h<<1 + gearTable[b]. The shift
// ages each byte out of the hash after 64 steps, giving a 64-byte effective
// window without any explicit subtraction. The table is generated by
// splitmix64 from a FIXED seed — chunk boundaries are part of the stored
// format, so the table must never change.
var gearTable = func() (t [256]uint64) {
	x := uint64(0x3c79ac492ba7b653)
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// FNV-1a constants for the incremental per-chunk content hash (identical to
// hash/fnv's 64a, inlined so the chunker updates span-wise without an
// interface call per byte).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUpdate(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// RawChunk is one content-defined chunk of a logical stream as the chunker
// reports it: pure content identity, no storage address yet. Offsets are
// implicit — chunks tile the stream in order.
type RawChunk struct {
	Len int64
	CRC uint32 // CRC-32C (Castagnoli) of the chunk bytes
	Sum uint64 // FNV-1a of the chunk bytes — the content-address key
}

// ChunkRef is a manifest chunk-table entry (ShardInfo.Chunks): a RawChunk
// plus the storage address of its bytes. SrcOff indexes the DECOMPRESSED
// stored stream of the physical object at (SrcEpoch, SrcRank) — for a full
// RawFormatChunked shard that stream is the logical stream itself (SrcOff =
// logical offset); for a RawFormatCDC object it is header + fresh payloads
// (SrcOff lands inside the payload section). Addresses are copied verbatim
// on reuse, so they always name an object that physically holds the bytes.
type ChunkRef struct {
	Len      int64
	CRC      uint32
	Sum      uint64
	SrcEpoch int
	SrcRank  int
	SrcOff   int64
}

// chunkKey is the content-address index key. All three identity fields
// participate: a 64-bit FNV collision alone must not alias two different
// chunks into one stored object.
type chunkKey struct {
	sum uint64
	len int64
	crc uint32
}

func keyOfRef(c *ChunkRef) chunkKey { return chunkKey{c.Sum, c.Len, c.CRC} }
func keyOfRaw(c *RawChunk) chunkKey { return chunkKey{c.Sum, c.Len, c.CRC} }

// chunkSummer accumulates the content-defined chunk table of everything
// written through it, forwarding to dst (nil discards — hash-only passes).
// The gear hash runs CONTINUOUSLY across cut points (it is never reset per
// chunk): a reset would make each boundary depend on the previous cut, and
// boundary decisions must depend only on the local 64-byte window for edits
// to stay local.
type chunkSummer struct {
	dst    io.Writer
	chunks []RawChunk
	gear   uint64
	clen   int64  // bytes accumulated into the current chunk
	crc    uint32 // running CRC-32C of the current chunk
	fsum   uint64 // running FNV-1a of the current chunk
}

func newChunkSummer(dst io.Writer) *chunkSummer {
	return &chunkSummer{dst: dst, fsum: fnvOffset64}
}

func (s *chunkSummer) seal(span []byte, total int64) {
	s.chunks = append(s.chunks, RawChunk{
		Len: total,
		CRC: crc32.Update(s.crc, crcTable, span),
		Sum: fnvUpdate(s.fsum, span),
	})
	s.crc, s.fsum = 0, fnvOffset64
}

func (s *chunkSummer) Write(p []byte) (int, error) {
	g, cl := s.gear, s.clen
	start := 0
	for i := 0; i < len(p); i++ {
		g = g<<1 + gearTable[p[i]]
		cl++
		if (cl >= CDCMinChunkBytes && g&cdcBoundaryMask == 0) || cl >= CDCMaxChunkBytes {
			s.seal(p[start:i+1], cl)
			start, cl = i+1, 0
		}
	}
	s.gear, s.clen = g, cl
	if start < len(p) {
		span := p[start:]
		s.crc = crc32.Update(s.crc, crcTable, span)
		s.fsum = fnvUpdate(s.fsum, span)
	}
	if s.dst != nil {
		return s.dst.Write(p)
	}
	return len(p), nil
}

// finish seals a trailing short chunk and returns the table. The summer
// must not be written to afterwards.
func (s *chunkSummer) finish() []RawChunk {
	if s.clen > 0 {
		s.chunks = append(s.chunks, RawChunk{Len: s.clen, CRC: s.crc, Sum: s.fsum})
		s.crc, s.fsum, s.clen = 0, fnvOffset64, 0
	}
	return s.chunks
}

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

// ------------------------------------------------------------- CDC writer

// shardCDCMagic introduces the stored CDC stream (between codec and object):
//
//	magic | gob(shardCDCHeader) | fresh chunk payloads, ascending index
//
// The header repeats the chunk tiling and the fresh set so the object is
// self-describing for tooling, but loads are driven by the manifest entry
// (which carries the per-chunk identities and source addresses).
var shardCDCMagic = []byte("MANASHD3")

type shardCDCHeader struct {
	Rank    int
	RawSize int64   // logical stream length
	Chunks  []int64 // chunk lengths tiling the logical stream
	Fresh   []int32 // indices of the chunks stored in this object, ascending
}

// cdcRanges lists the fresh chunks a CDC entry stores as spans of its
// logical stream, each with the CRC-32C the hash pass recorded for it, and
// the chunk lengths tiling the stream (the object header's Chunks field).
func cdcRanges(si *ShardInfo) (fresh []shardRange, lens []int64) {
	lens = make([]int64, len(si.Chunks))
	var off int64
	for k := range si.Chunks {
		c := &si.Chunks[k]
		lens[k] = c.Len
		if c.SrcEpoch == si.RefEpoch && c.SrcRank == si.Rank {
			fresh = append(fresh, shardRange{idx: k, off: off, n: c.Len, crc: c.CRC})
		}
		off += c.Len
	}
	return fresh, lens
}

// selfChunkRefs addresses a full chunked shard's own chunk table into
// itself: SrcOff is the logical offset (the stored decompressed stream of a
// full shard IS the logical stream).
func selfChunkRefs(table []RawChunk, epoch, rank int) []ChunkRef {
	refs := make([]ChunkRef, len(table))
	var off int64
	for k, c := range table {
		refs[k] = ChunkRef{Len: c.Len, CRC: c.CRC, Sum: c.Sum,
			SrcEpoch: epoch, SrcRank: rank, SrcOff: off}
		off += c.Len
	}
	return refs
}

// cdcFreshIndices returns the indices of a CDC entry's chunks that live in
// the entry's own object (SrcEpoch/SrcRank name the object itself) — the
// fresh set the object was written with.
func cdcFreshIndices(si *ShardInfo) []int32 {
	var out []int32
	for k := range si.Chunks {
		c := &si.Chunks[k]
		if c.SrcEpoch == si.RefEpoch && c.SrcRank == si.Rank {
			out = append(out, int32(k))
		}
	}
	return out
}

// cdcFreshLen sums the lengths of a CDC entry's self-sourced (fresh)
// chunks — the byte basis pro-rata read/write pricing uses.
func cdcFreshLen(si *ShardInfo) int64 {
	var n int64
	for k := range si.Chunks {
		c := &si.Chunks[k]
		if c.SrcEpoch == si.RefEpoch && c.SrcRank == si.Rank {
			n += c.Len
		}
	}
	return n
}

// --------------------------------------------------------------- CDC merge

// cdcSource is one distinct physical object reused chunks are read from
// during a merge. Chunks arrive roughly in source order (reuse preserves
// relative order except around edits), so the source's decompressed stream
// is read sequentially, skipping forward between chunks; a backward seek
// retires the current reader instance and reopens from the start.
//
// Integrity: the FIRST instance of each source is its verifying pass — by
// the time the merge finishes, that instance has read the object end to end
// and its stored checksum is compared against the source's own manifest
// entry, exactly as a direct load of that shard would. Later instances
// (after a backward seek) skip re-verification — every chunk they serve is
// still CRC-checked against the manifest's chunk table.
type cdcSource struct {
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

// cdcMerge wires one RawFormatCDC shard's stored objects — the CDC object
// at si.RefEpoch plus every distinct chunk-source object — into the
// reconstructed logical stream. Callers read `merged` (CRC-checked chunk by
// chunk as it assembles) and then call finish, which drains every object so
// each checksum covers every stored byte and applies the verification
// order: the CDC object's checksum mismatch wins, then a chunk source's
// ("chunk source shard in epoch N corrupted"), then the caller's decode
// error, then the stored-stream identity.
type cdcMerge struct {
	store   Store
	si      *ShardInfo
	merged  *countReader
	objCr   *countReader // CDC object's stored bytes
	dRaw    *countReader // CDC object's decompressed stream
	closers []io.Closer
	sources map[[2]int]*cdcSource
	mans    map[int]*Manifest // source-manifest cache
}

func openCDCMerge(store Store, si *ShardInfo) (*cdcMerge, error) {
	codec, err := codecByID(si.CodecID)
	if err != nil {
		return nil, err
	}
	m := &cdcMerge{store: store, si: si,
		sources: make(map[[2]int]*cdcSource), mans: make(map[int]*Manifest)}
	rc, err := store.OpenShard(si.RefEpoch, si.Rank)
	if err != nil {
		return nil, err
	}
	m.closers = append(m.closers, rc)
	m.objCr = newCountReader(rc)
	dec := codec.NewReader(m.objCr)
	m.closers = append(m.closers, dec)
	m.dRaw = newCountReader(dec)
	dbr := bufio.NewReader(m.dRaw)

	magic := make([]byte, len(shardCDCMagic))
	if _, err := io.ReadFull(dbr, magic); err != nil {
		return m, fmt.Errorf("reading cdc header: %w", err)
	}
	if !bytes.Equal(magic, shardCDCMagic) {
		return m, fmt.Errorf("cdc stream has bad magic %q", magic)
	}
	var hdr shardCDCHeader
	if err := gob.NewDecoder(newCappedMessageReader(dbr, si.DeltaRawSize)).Decode(&hdr); err != nil {
		return m, fmt.Errorf("decoding cdc header: %w", err)
	}
	fresh := cdcFreshIndices(si)
	agree := hdr.Rank == si.Rank && hdr.RawSize == si.RawSize &&
		len(hdr.Chunks) == len(si.Chunks) && len(hdr.Fresh) == len(fresh)
	if agree {
		for k := range hdr.Chunks {
			if hdr.Chunks[k] != si.Chunks[k].Len {
				agree = false
				break
			}
		}
	}
	if agree {
		for k := range hdr.Fresh {
			if hdr.Fresh[k] != fresh[k] {
				agree = false
				break
			}
		}
	}
	if !agree {
		return m, fmt.Errorf("cdc header disagrees with the manifest (rank %d, raw %d, %d chunks, %d fresh)",
			hdr.Rank, hdr.RawSize, len(hdr.Chunks), len(hdr.Fresh))
	}
	var maxLen int64 = 1
	for k := range si.Chunks {
		if si.Chunks[k].Len > maxLen {
			maxLen = si.Chunks[k].Len
		}
	}
	m.merged = newCountReader(&cdcMergeReader{m: m, payload: dbr, buf: make([]byte, maxLen)})
	return m, nil
}

// sourceInfo resolves a chunk source's manifest entry, requiring it to be a
// physical object of a chunk-addressable layout.
func (m *cdcMerge) sourceInfo(epoch, rank int) (*ShardInfo, error) {
	man := m.mans[epoch]
	if man == nil {
		var err error
		if man, err = m.store.GetManifest(epoch); err != nil {
			return nil, fmt.Errorf("reading chunk source epoch %d manifest: %w", epoch, err)
		}
		m.mans[epoch] = man
	}
	if rank < 0 || rank >= len(man.Shards) {
		return nil, fmt.Errorf("chunk source epoch %d has no rank %d", epoch, rank)
	}
	bi := &man.Shards[rank] // validate enforces shard i == rank i
	if bi.RefEpoch != epoch {
		return nil, fmt.Errorf("chunk source epoch %d rank %d is a reference into epoch %d (sources must be physical objects)",
			epoch, rank, bi.RefEpoch)
	}
	if bi.RawFormat != RawFormatChunked && bi.RawFormat != RawFormatCDC {
		return nil, fmt.Errorf("chunk source epoch %d rank %d has format %d (not chunk-addressable)",
			epoch, rank, bi.RawFormat)
	}
	return bi, nil
}

func (m *cdcMerge) openSource(s *cdcSource) error {
	codec, err := codecByID(s.bi.CodecID)
	if err != nil {
		return err
	}
	rc, err := m.store.OpenShard(s.epoch, s.rank)
	if err != nil {
		return fmt.Errorf("opening chunk source shard in epoch %d: %w", s.epoch, err)
	}
	s.rc = rc
	s.cr = newCountReader(rc)
	s.dec = codec.NewReader(s.cr)
	s.pos = 0
	s.opened++
	return nil
}

// verifySourceDrain reads the current instance to EOF and settles the
// source object's own integrity verdict: a stored-checksum mismatch wins
// over any decompression error the drain produced.
func (m *cdcMerge) verifySourceDrain(s *cdcSource) error {
	var derr error
	if _, err := io.Copy(io.Discard, s.dec); err != nil {
		derr = fmt.Errorf("decompressing chunk source shard in epoch %d: %w", s.epoch, err)
	}
	if _, err := io.Copy(io.Discard, s.cr); err != nil && derr == nil {
		derr = fmt.Errorf("reading chunk source shard in epoch %d: %w", s.epoch, err)
	}
	if got := s.cr.h.Sum64(); got != s.bi.Checksum || s.cr.n != s.bi.Size {
		return fmt.Errorf("chunk source shard in epoch %d corrupted (checksum %x, want %x)",
			s.epoch, got, s.bi.Checksum)
	}
	return derr
}

// retireSource closes the source's current reader instance, completing the
// primary verification pass if this instance is it.
func (m *cdcMerge) retireSource(s *cdcSource) error {
	if s.dec == nil {
		return nil
	}
	if s.opened == 1 && !s.done {
		s.verr = m.verifySourceDrain(s)
		s.done = true
	}
	s.dec.Close()
	s.rc.Close()
	s.dec, s.rc, s.cr = nil, nil, nil
	s.pos = 0
	return s.verr
}

// readSourceChunk reads one reused chunk's bytes from its source object's
// decompressed stream.
func (m *cdcMerge) readSourceChunk(c *ChunkRef, b []byte) error {
	key := [2]int{c.SrcEpoch, c.SrcRank}
	s := m.sources[key]
	if s == nil {
		bi, err := m.sourceInfo(c.SrcEpoch, c.SrcRank)
		if err != nil {
			return err
		}
		s = &cdcSource{epoch: c.SrcEpoch, rank: c.SrcRank, bi: bi}
		m.sources[key] = s
	}
	if c.SrcOff+int64(len(b)) > s.bi.sourceStreamLen() {
		return fmt.Errorf("chunk [%d:%d) exceeds source shard in epoch %d (%d stream bytes)",
			c.SrcOff, c.SrcOff+int64(len(b)), s.epoch, s.bi.sourceStreamLen())
	}
	if s.dec != nil && c.SrcOff < s.pos {
		if err := m.retireSource(s); err != nil {
			return err
		}
	}
	if s.dec == nil {
		if err := m.openSource(s); err != nil {
			return err
		}
	}
	if skip := c.SrcOff - s.pos; skip > 0 {
		if _, err := io.CopyN(io.Discard, s.dec, skip); err != nil {
			return fmt.Errorf("seeking chunk source shard in epoch %d: %w", s.epoch, err)
		}
		s.pos = c.SrcOff
	}
	if _, err := io.ReadFull(s.dec, b); err != nil {
		return fmt.Errorf("reading chunk source shard in epoch %d: %w", s.epoch, err)
	}
	s.pos += int64(len(b))
	return nil
}

// sourceStreamLen is the length of a physical object's decompressed stored
// stream — the space ChunkRef.SrcOff indexes: the logical stream for a full
// chunked shard, the stored CDC stream for a CDC object.
func (si *ShardInfo) sourceStreamLen() int64 {
	if si.RawFormat == RawFormatCDC {
		return si.DeltaRawSize
	}
	return si.RawSize
}

// cdcMergeReader assembles the logical stream chunk by chunk: fresh chunks
// come from the CDC object's payload section in order, reused chunks from
// their source objects, and every chunk is CRC-checked against the
// manifest's table the moment it is assembled.
type cdcMergeReader struct {
	m       *cdcMerge
	payload io.Reader
	idx     int
	buf     []byte
	avail   []byte
	err     error
}

func (r *cdcMergeReader) fill() error {
	si := r.m.si
	if r.idx >= len(si.Chunks) {
		return io.EOF
	}
	c := &si.Chunks[r.idx]
	b := r.buf[:c.Len]
	if c.SrcEpoch == si.RefEpoch && c.SrcRank == si.Rank {
		if _, err := io.ReadFull(r.payload, b); err != nil {
			return fmt.Errorf("reading chunk %d: %w", r.idx, err)
		}
	} else if err := r.m.readSourceChunk(c, b); err != nil {
		return fmt.Errorf("chunk %d: %w", r.idx, err)
	}
	if got := crc32.Checksum(b, crcTable); got != c.CRC {
		return fmt.Errorf("chunk %d corrupted (crc %08x, want %08x; sourced from epoch %d rank %d)",
			r.idx, got, c.CRC, c.SrcEpoch, c.SrcRank)
	}
	r.avail = b
	r.idx++
	return nil
}

func (r *cdcMergeReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.avail) == 0 {
		if err := r.fill(); err != nil {
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.avail)
	r.avail = r.avail[n:]
	return n, nil
}

func (m *cdcMerge) close() {
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
}

// sortedSources returns the merge's sources ordered by (epoch, rank) so the
// verification verdict is deterministic.
func (m *cdcMerge) sortedSources() []*cdcSource {
	out := make([]*cdcSource, 0, len(m.sources))
	for _, s := range m.sources {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].epoch != out[b].epoch {
			return out[a].epoch < out[b].epoch
		}
		return out[a].rank < out[b].rank
	})
	return out
}

// finish drains the CDC object and completes every source's primary
// verification pass, then settles the verdict against decErr, the caller's
// decode result. Verification order mirrors the delta merge: this object's
// corruption first, then its dependencies', then the decode error, then
// geometry agreement.
func (m *cdcMerge) finish(decErr error) error {
	si := m.si
	if decErr == nil && (m.merged.n != si.RawSize || m.merged.h.Sum64() != si.RawSum) {
		decErr = fmt.Errorf("merged stream does not match the manifest identity (got %d bytes sum %#x, want %d bytes sum %#x)",
			m.merged.n, m.merged.h.Sum64(), si.RawSize, si.RawSum)
	}
	if _, err := io.Copy(io.Discard, m.dRaw); err != nil && decErr == nil {
		decErr = fmt.Errorf("decompressing cdc shard: %w", err)
	}
	if _, err := io.Copy(io.Discard, m.objCr); err != nil && decErr == nil {
		decErr = fmt.Errorf("reading cdc shard: %w", err)
	}
	sources := m.sortedSources()
	for _, s := range sources {
		if s.dec != nil {
			if err := m.retireSource(s); err != nil && decErr == nil {
				// Corruption verdicts resurface below in verification order;
				// keep the first drain error as the decode-level fallback.
				decErr = err
			}
		}
	}
	if got := m.objCr.h.Sum64(); got != si.Checksum {
		return fmt.Errorf("shard corrupted (checksum %x, want %x)", got, si.Checksum)
	}
	for _, s := range sources {
		if s.done && s.verr != nil {
			return s.verr
		}
	}
	if decErr != nil {
		return decErr
	}
	if m.objCr.n != si.Size || m.dRaw.n != si.DeltaRawSize || m.dRaw.h.Sum64() != si.DeltaRawSum {
		return fmt.Errorf("cdc stream does not match the manifest (stored %d bytes, raw %d sum %#x; want %d, raw %d sum %#x)",
			m.objCr.n, m.dRaw.n, m.dRaw.h.Sum64(), si.Size, si.DeltaRawSize, si.DeltaRawSum)
	}
	return nil
}

// loadShardCDC reconstructs one RawFormatCDC shard's rank image by
// streaming the chunk merge straight into the shard decoder — one-chunk
// merge memory plus one sequential reader per distinct source object.
func loadShardCDC(store Store, si *ShardInfo) (*RankImage, error) {
	m, err := openCDCMerge(store, si)
	if m != nil {
		defer m.close()
	}
	if err != nil {
		return nil, err
	}
	// The bufio layer reads ahead of the header's gob decoder but stays on
	// this side of the merged counter, so the drained count is exact.
	ri, decErr := readShardRaw(bufio.NewReader(m.merged), si.RawSize)
	if decErr == nil {
		if _, err := io.Copy(io.Discard, m.merged); err != nil {
			decErr = fmt.Errorf("merging chunks: %w", err)
		}
	}
	if err := m.finish(decErr); err != nil {
		return nil, err
	}
	return ri, nil
}
