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
// RawFormatCDC object: the fresh chunks' bytes back to back in chunk-index
// order, nothing else.
//
// The manifest entry carries the FULL chunk table (ShardInfo.Chunks): per
// chunk its length, CRC-32C, XXH64 content hash, and the (SrcEpoch,
// SrcRank, SrcOff) address of its bytes inside a physically stored object's
// decompressed stream. Fresh chunks point into this object (the cumulative
// length of the fresh chunks before them); reused chunks copy their source
// address verbatim from the parent table, so chains never deepen — restart
// resolves every chunk in one hop, opening each distinct object once and
// reading it sequentially.
//
// The same dual-identity contract as page deltas applies: RawSum/RawSize
// always describe the logical stream (the reuse key), Size/Checksum the
// stored object, and DeltaRawSize/DeltaRawSum the stored stream between the
// codec and the object (reused field names — the geometry is identical).

import "hash/crc32"

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

// RawChunk is one content-defined chunk of a logical stream as the chunker
// reports it: pure content identity, no storage address yet. Offsets are
// implicit — chunks tile the stream in order.
type RawChunk struct {
	Len int64
	CRC uint32 // CRC-32C (Castagnoli) of the chunk bytes
	Sum uint64 // XXH64 of the chunk bytes — the content-address key
}

// ChunkRef is a manifest chunk-table entry (ShardInfo.Chunks): a RawChunk
// plus the storage address of its bytes. SrcOff indexes the DECOMPRESSED
// stored stream of the physical object at (SrcEpoch, SrcRank) — for a full
// RawFormatChunked shard that stream is the logical stream itself (SrcOff =
// logical offset); for a RawFormatCDC object it is its fresh chunks back to
// back. Addresses are copied verbatim on reuse, so they always name an
// object that physically holds the bytes.
type ChunkRef struct {
	Len      int64
	CRC      uint32
	Sum      uint64
	SrcEpoch int
	SrcRank  int
	SrcOff   int64
}

// chunkKey is the content-address index key. All three identity fields
// participate: a 64-bit hash collision alone must not alias two different
// chunks into one stored object.
type chunkKey struct {
	sum uint64
	len int64
	crc uint32
}

func keyOfRef(c *ChunkRef) chunkKey { return chunkKey{c.Sum, c.Len, c.CRC} }
func keyOfRaw(c *RawChunk) chunkKey { return chunkKey{c.Sum, c.Len, c.CRC} }

// gearSkipBytes is how much of each chunk the rolling hash never looks at:
// no cut is allowed before CDCMinChunkBytes and the shift forgets a byte
// after 64 steps, so rolling from zero over the last 64 bytes below the
// floor reaches the floor with the value a continuous hash would hold.
const gearSkipBytes = CDCMinChunkBytes - 64

// chunkSummer accumulates the content-defined chunk table and the whole-
// stream XXH64 of everything written to it (a hash-only sink: the bytes go
// nowhere). A boundary depends only on the 64 bytes before it, never on the
// previous cut, so edits stay local.
//
// The gear loop in Write is the only code that decides a cut from raw bytes.
// With a hint — the parent manifest's chunk table for the same rank — most
// chunks never reach it: once a sealed chunk equals parent chunk j, the next
// one is expected to equal parent chunk j+1, and predict proves or declines
// that at hash speed. A parent chunk that was cut by the gear walk has no
// candidate in [floor, Len) and one at Len (or Len is the ceiling), and every
// position from the floor up sees only the chunk's own bytes in its 64-byte
// window, so a chunk start followed by the same bytes is cut at the same
// length. Whatever the hint holds, every Len, CRC and Sum emitted and the
// stream sum are computed here from the bytes written: a stale, foreign or
// forged hint costs time or dedup, never a byte.
type chunkSummer struct {
	chunks []RawChunk
	gear   uint64
	clen   int64  // bytes accumulated into the current chunk
	crc    uint32 // running CRC-32C of the current chunk
	sum    xxh64  // running content hash of the current chunk
	raw    xxh64  // the whole stream's, fed a chunk at a time while it is cache-hot

	hint   []ChunkRef
	byKey  map[chunkKey]int // hint position of each identity, first occurrence
	expect int              // hint position expected at the next chunk start, -1 for none
	// predicted counts chunks emitted by predict; everything else was cut
	// by the gear loop.
	predicted int
}

func newChunkSummer(hint []ChunkRef) *chunkSummer {
	s := &chunkSummer{sum: newXXH64(), raw: newXXH64(), expect: -1}
	if len(hint) > 1 { // a one-chunk table is all end-of-stream cut
		s.hint = hint
		s.byKey = make(map[chunkKey]int, len(hint))
		for j := len(hint) - 1; j >= 0; j-- {
			s.byKey[keyOfRef(&hint[j])] = j
		}
	}
	return s
}

// expectAfter sets the expectation for the chunk after one that equals the
// hint's entry j. The last entry is the parent's end-of-stream cut, never a
// prediction.
func (s *chunkSummer) expectAfter(j int) {
	if j+1 < len(s.hint)-1 {
		s.expect = j + 1
	}
}

func (s *chunkSummer) seal(span []byte, total int64) {
	s.sum.write(span)
	s.raw.write(span)
	c := RawChunk{Len: total, CRC: crc32.Update(s.crc, crcTable, span), Sum: s.sum.sum64()}
	s.chunks = append(s.chunks, c)
	if j, ok := s.byKey[keyOfRaw(&c)]; ok {
		s.expectAfter(j)
	}
	s.crc, s.clen = 0, 0
	s.sum.reset()
}

// predict is called at a chunk start with the bytes in hand and an
// expectation, which it consumes. It reports the length of the chunk it
// emitted, or 0: the gear loop then cuts this chunk from its first byte. It
// accepts only when the expected length is one the walk can cut, lies wholly
// inside b, ends where the walk's own cut condition holds, and covers bytes
// with the parent chunk's CRC-32C and XXH64 — cheapest test first, so an
// expectation an edit has shifted is usually dropped after 64 bytes.
func (s *chunkSummer) predict(b []byte) int {
	j := s.expect
	c := &s.hint[j]
	s.expect = -1
	if c.Len < CDCMinChunkBytes || c.Len > CDCMaxChunkBytes || c.Len > int64(len(b)) {
		return 0
	}
	span := b[:c.Len]
	var g uint64
	for _, x := range span[len(span)-64:] {
		g = g<<1 + gearTable[x]
	}
	if g&cdcBoundaryMask != 0 && c.Len < CDCMaxChunkBytes {
		return 0
	}
	crc := crc32.Checksum(span, crcTable)
	if crc != c.CRC {
		return 0
	}
	s.sum.write(span)
	sum := s.sum.sum64()
	s.sum.reset()
	if sum != c.Sum {
		return 0
	}
	s.raw.write(span)
	s.chunks = append(s.chunks, RawChunk{Len: int64(len(span)), CRC: crc, Sum: sum})
	s.predicted++
	s.expectAfter(j)
	return len(span)
}

func (s *chunkSummer) Write(p []byte) (int, error) {
	g, cl := s.gear, s.clen
	start := 0
	for i := 0; i < len(p); {
		if cl == 0 && s.expect >= 0 {
			if n := s.predict(p[i:]); n > 0 {
				i += n
				start = i
				continue
			}
		}
		if cl < gearSkipBytes {
			n := min(int(gearSkipBytes-cl), len(p)-i)
			i, cl, g = i+n, cl+int64(n), 0
			continue
		}
		// Roll to the next cut, the ceiling or the end of p: first through
		// what is left below the floor, where no candidate counts.
		run := p[i:min(len(p), i+int(CDCMaxChunkBytes-cl))]
		k := 0
		for warm := min(len(run), int(CDCMinChunkBytes-1-cl)); k < warm; k++ {
			g = g<<1 + gearTable[run[k]]
		}
		for k < len(run) {
			g = g<<1 + gearTable[run[k]]
			k++
			if g&cdcBoundaryMask == 0 {
				break
			}
		}
		i, cl = i+k, cl+int64(k)
		if (cl >= CDCMinChunkBytes && g&cdcBoundaryMask == 0) || cl >= CDCMaxChunkBytes {
			s.seal(p[start:i], cl)
			start, cl = i, 0
		}
	}
	s.gear, s.clen = g, cl
	s.crc = crc32.Update(s.crc, crcTable, p[start:])
	s.sum.write(p[start:])
	s.raw.write(p[start:])
	return len(p), nil
}

// finish seals a trailing short chunk and returns the table. The summer
// must not be written to afterwards.
func (s *chunkSummer) finish() []RawChunk {
	if s.clen > 0 {
		s.seal(nil, s.clen)
	}
	return s.chunks
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
