package ckpt

// Checkpoint image serialization.
//
// There is one on-disk format: the store epoch (FORMAT.md) — per rank one
// chunked, codec-compressed, XXH64-checksummed shard object, behind a sealed
// manifest record carrying the job geometry and the shard table. A partial
// object (partial.go) is the same envelope around nothing but the bytes of
// the extents its entry stores itself; only manifests and the full shard's
// header pass through gob. This file holds the shard streams, the manifest
// and its record; store.go commits and loads epochs.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mana/internal/mpi"
)

// ShardInfo locates and authenticates one rank's shard in a store epoch
// (see FORMAT.md).
type ShardInfo struct {
	Rank     int
	Size     int64  // stored (compressed) object bytes
	RawSize  int64  // logical stream bytes before compression
	Checksum uint64 // XXH64 over the stored object

	// RefEpoch is the store epoch whose shard data holds this rank's bytes.
	// Equal to the manifest's own Epoch for freshly written shards; an
	// earlier epoch for shards reused unchanged from a prior capture
	// (incremental checkpointing). Reference chains are collapsed at commit
	// time, so RefEpoch always names the epoch that physically wrote the
	// blob.
	RefEpoch int
	// ClockVT is the rank's virtual clock at capture. Shard objects are
	// encoded with the clock zeroed — it is the one field that changes every
	// capture even for an otherwise idle rank, and keeping it out of the
	// blob is what makes shard reuse possible. Restart re-applies it from
	// here.
	ClockVT float64
	// RawSum is the XXH64 checksum of the raw (pre-compression, clock-
	// zeroed) shard stream — the identity the incremental differ compares
	// against the previous epoch.
	RawSum uint64
	// RawFormat selects the stored object's layout: RawFormatChunked for a
	// full shard in the bounded-memory header+payload layout the streaming
	// writer emits, RawFormatPageDelta or RawFormatCDC for a partial object
	// reconstructed through its extent list (partial.go).
	RawFormat int

	// Page-delta fields (RawFormat == RawFormatPageDelta, plus the page
	// table on any fresh shard committed with delta mode on). RawSum and
	// RawSize ALWAYS describe the LOGICAL chunked (RawFormatChunked) stream
	// — the identity the incremental differ keys on — never the stored
	// delta object, whose own raw identity is DeltaRawSum/DeltaRawSize and
	// whose stored compressed identity stays Size/Checksum.

	// PageSize is the fixed page width the logical stream is split into
	// (the last page may be short). Zero when no page table was recorded.
	PageSize int64
	// PageSums holds one CRC-32C (Castagnoli) per page of the logical
	// stream — the page-granular identity the next epoch diffs against,
	// and the per-page integrity check restart applies while merging.
	PageSums []uint32
	// BaseEpoch is the epoch holding the FULL (RawFormatChunked) shard a
	// page-delta object reconstructs from. Deltas never chain: the base is
	// always a full shard, so restart reads exactly two objects.
	BaseEpoch int
	// DeltaPages lists the dirty page indices stored in the delta object,
	// sorted ascending; every other page is byte-identical to the base.
	DeltaPages []int32
	// BaseSize is the base object's stored (compressed) size, copied at
	// commit time so restart read pricing can charge the base fan-in from
	// this manifest alone.
	BaseSize int64
	// DeltaRawSize/DeltaRawSum are a partial object's stored stream's raw
	// (pre-compression) length and XXH64 — what Size/Checksum compress. The
	// stream is the entry's own extents' bytes, so DeltaRawSize is what they
	// cover, and validate holds it to that.
	DeltaRawSize int64
	DeltaRawSum  uint64

	// Chunks is the content-defined chunk table of the LOGICAL stream (CDC
	// mode, cdc.go): per chunk its length, CRC-32C, XXH64 content hash, and
	// the physical object its bytes live in. Present on every shard
	// committed with CDC on (full chunked shards carry a self-sourced table
	// so later epochs can reuse their chunks); required when RawFormat ==
	// RawFormatCDC.
	Chunks []ChunkRef
	// CodecID names the codec that encoded the stored object (codec.go).
	// The zero value is CodecFlate, so every manifest written before codecs
	// existed keeps meaning what it meant.
	CodecID int
}

// Raw shard stream formats (ShardInfo.RawFormat). Zero is not a format: it
// named the retired whole-RankImage gob, and Manifest.validate refuses it.
const (
	// RawFormatChunked: a small gob header (the RankImage minus its bulk
	// payloads, plus their lengths) followed by the payload bytes raw —
	// App, Proto, then each in-flight message's data, in order. Only the
	// header passes through gob, so encode buffering is O(header) and
	// decode allocates nothing beyond the restored state itself.
	RawFormatChunked = 1
	// RawFormatPageDelta: only the DIRTY pages of the logical chunked
	// stream, against a full base shard in ShardInfo.BaseEpoch — the dirty
	// pages' bytes in index order, nothing else. Restart merges base and
	// delta page streams at one-page memory (see FORMAT.md, "Raw format 2").
	RawFormatPageDelta = 2
	// RawFormatCDC: only the FRESH content-defined chunks of the logical
	// chunked stream — their bytes in index order, nothing else. The
	// manifest's chunk table (ShardInfo.Chunks) addresses every chunk,
	// fresh or reused, into a physically stored object; restart merges them
	// at one-chunk memory (see FORMAT.md, "Raw format 3" and cdc.go).
	RawFormatCDC = 3
)

// Manifest versions: which commit mode sealed the epoch. Readers do not
// switch on it — every entry says what it is (RawFormat, tables).
const (
	// ManifestV3 is the store-epoch manifest: shards live as individual
	// store objects (RefEpoch, Rank), possibly in earlier epochs, with the
	// rank clock carried per shard in the manifest itself.
	ManifestV3 = 3
	// ManifestV4 is a v3 manifest whose epoch was committed with page
	// deltas enabled: fresh shards carry page tables and entries may be
	// RawFormatPageDelta. Purely additive gob evolution over v3 — old
	// fields mean exactly what they meant.
	ManifestV4 = 4
	// ManifestV5 is a v3 manifest whose epoch was committed with
	// content-defined chunking enabled: entries carry chunk tables and may
	// be RawFormatCDC. Additive again — a v5 reader decodes every earlier
	// version unchanged.
	ManifestV5 = 5
)

// Manifest is the job-level header: the geometry needed to rebuild the
// lower half plus the shard table. It deliberately duplicates the JobImage
// header fields so tools can inspect an image without touching shard data.
// Each store epoch has one, sealed as the epoch's commit record.
type Manifest struct {
	Algorithm          string
	Ranks              int
	PPN                int
	CaptureVT          float64
	PaddedBytesPerRank int64
	Shards             []ShardInfo

	// Version is one of ManifestV3..ManifestV5.
	Version int
	// Epoch is this capture's position in the store's chain (0-based);
	// Parent is the epoch the incremental differ diffed against, -1 for a
	// full capture with no parent.
	Epoch  int
	Parent int
	// Tier is always 0 (netmodel.TierPFS, the one storage tier); validate
	// refuses anything else. The field exists only so the on-disk record's
	// bytes do not move and for bench/'s call sites (layers.go:274,
	// trace.go:87), which pass it back into RestartReadCost. The gob-free
	// manifest of ROADMAP item 7(b) drops it.
	Tier int
}

// encodeWorkers bounds a fan-out at GOMAXPROCS (and at the job size).
func encodeWorkers(jobs int) int {
	w := runtime.GOMAXPROCS(0)
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// fanOut runs fn(i) for i in [0, jobs) across workers goroutines. fn must be
// safe to call concurrently for distinct i.
func fanOut(jobs, workers int, fn func(i int)) {
	if workers <= 1 || jobs <= 1 {
		for i := 0; i < jobs; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= jobs {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// bufReaders recycles the read-ahead buffer in front of a shard's gob header
// decoder, so a load of many small shards allocates none per shard.
var bufReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

func getBufReader(src io.Reader) *bufio.Reader {
	br := bufReaders.Get().(*bufio.Reader)
	br.Reset(src)
	return br
}

func putBufReader(br *bufio.Reader) {
	br.Reset(nil) // drop the source: the pool must not keep a shard's reader chain alive
	bufReaders.Put(br)
}

// ---------------------------------------------------------- streaming encode

// Streaming shard I/O. Every shard is encoded straight into the store's
// shard writer through fixed-size buffers: materializing a rank's raw stream or stored object
// whole would make peak encode memory scale with the image size (hundreds
// of MB per rank at MANA scale). Crucially the raw layout is CHUNKED
// (RawFormatChunked): gob frames every Encode call as one message that it
// buffers in full on both sides, so only a small header goes through gob —
// the bulk payloads (App/Proto/in-flight bytes) are written raw from the
// already-captured image, and the per-shard transient memory is the
// encoder's own bounded state:
//
//	shardStream: magic + gob(small header) | payload segments, by reference
//	  → codec (internal/deflate) → countWriter(compressed XXH64+size)
//	  → pooled chunk buffer → Store.PutShardStream
//
// The raw XXH64 identity is NOT recomputed on this path: HashCapture* walked
// the same segment list once, before the commit waited for its predecessor,
// and the manifest's RawSum/RawSize are stamped from that pass (see
// shardStream).
//
// Concurrency is bounded in BYTES, not just workers: every open ShardWriter
// is accounted at shardStreamFootprint, and the fan-out runs at most
// maxEncodeStreams of them at once, so the commit stage's in-flight memory
// never exceeds 64 MiB no matter how many ranks or how large their shards.

// shardChunkBytes is the fixed size of the pooled staging buffer between
// the compressor and the store writer (gob emits many small writes; batching
// them keeps FileStore syscall counts sane). 512 KiB came out of a sweep over
// 128K/256K/512K/1M of the streaming commit of a 64-rank periodic straggler
// chain under an 8 MiB budget (a root-package benchmark since folded into
// the conformance chain table): throughput climbs
// ~8% from 256K (fewer store writes per shard) and flattens past 512K,
// while the per-stream footprint stays small.
const shardChunkBytes = 512 << 10

// shardStreamFootprint is the in-flight memory one open ShardWriter is
// accounted at: the pooled chunk buffer plus a conservative bound on the
// flate compressor's window/hash state and the gob encoder's scratch. It is
// an accounting constant, deliberately rounded up — the bound must hold
// for real memory, so over-counting is the safe direction.
const shardStreamFootprint = shardChunkBytes + 768<<10

// maxEncodeStreams bounds the shard streams a commit or compaction holds
// open at once: 64 MiB of in-flight encode state, 51 streams — far above
// any sane GOMAXPROCS, which bounds the fan-out first.
const maxEncodeStreams = (64 << 20) / shardStreamFootprint

// StreamBudget is an empty type that CommitStreamed and CompactChain still
// take, and ignore: the encode bound is maxEncodeStreams.
type StreamBudget struct{}

// streamFanOut runs fn(i) for each of jobs shard streams on
// min(GOMAXPROCS, jobs, maxEncodeStreams) workers, one open stream each,
// and returns the in-flight encode memory it ran with
// (CommitStats.PeakEncodeBytes): the streams open at once times
// shardStreamFootprint.
func streamFanOut(jobs int, fn func(i int)) (peak int64) {
	workers := min(encodeWorkers(jobs), maxEncodeStreams)
	fanOut(jobs, workers, fn)
	return int64(min(workers, jobs)) * shardStreamFootprint
}

// countWriter accumulates an XXH64 checksum and byte count over everything
// written through it, forwarding to dst (nil dst discards — the hash-only
// identity pass).
type countWriter struct {
	dst io.Writer
	h   xxh64
	n   int64
}

func newCountWriter(dst io.Writer) *countWriter {
	return &countWriter{dst: dst, h: newXXH64()}
}

// countPieceBytes bounds what countWriter hashes before handing the same
// bytes to dst, so that dst — the page summer, the codec, the chunk buffer —
// reads them from cache. A shard stream delivers a 16 MiB segment as one
// Write; hashed whole and then forwarded whole, it came from DRAM twice.
const countPieceBytes = CDCMaxChunkBytes

// Write hashes and forwards p a piece at a time. It returns the bytes dst
// consumed; on an error h and n may cover up to one piece more than that.
func (w *countWriter) Write(p []byte) (int, error) {
	if w.dst == nil {
		w.h.write(p)
		w.n += int64(len(p))
		return len(p), nil
	}
	done := 0
	for {
		piece := p[done:]
		if len(piece) > countPieceBytes {
			piece = piece[:countPieceBytes]
		}
		w.h.write(piece)
		w.n += int64(len(piece))
		n, err := w.dst.Write(piece)
		done += n
		if err == nil && n < len(piece) {
			err = io.ErrShortWrite
		}
		if err != nil || done == len(p) {
			return done, err
		}
	}
}

// copyShardVerified streams one stored shard blob from src to dst in
// bounded chunks, checking the copied bytes against the manifest identity
// (stored size and XXH64 checksum over the compressed blob). The check is
// what makes compaction safe to follow with GC: the copy must be proven
// byte-identical BEFORE the new epoch seals and the original becomes
// deletable — a silently corrupt copy would otherwise turn into data loss
// the moment the source epoch is reclaimed.
func copyShardVerified(dst io.Writer, src io.Reader, wantSize int64, wantSum uint64) error {
	cw := newCountWriter(dst)
	buf := make([]byte, shardChunkBytes)
	if _, err := io.CopyBuffer(cw, src, buf); err != nil {
		return err
	}
	if cw.n != wantSize || cw.h.sum64() != wantSum {
		return fmt.Errorf("copied shard does not match its manifest identity (got %d bytes sum %#x, want %d bytes sum %#x)",
			cw.n, cw.h.sum64(), wantSize, wantSum)
	}
	return nil
}

// chunkWriters pools the fixed-size staging buffers between the compressor
// and the store writer (see shardChunkBytes).
var chunkWriters = sync.Pool{}

type chunkWriter struct {
	dst io.Writer
	buf []byte
	n   int
}

func newChunkWriter(dst io.Writer) *chunkWriter {
	cw, _ := chunkWriters.Get().(*chunkWriter)
	if cw == nil {
		cw = &chunkWriter{buf: make([]byte, shardChunkBytes)}
	}
	cw.dst = dst
	cw.n = 0
	return cw
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if w.n == len(w.buf) {
			if err := w.flush(); err != nil {
				return 0, err
			}
		}
		c := copy(w.buf[w.n:], p)
		w.n += c
		p = p[c:]
	}
	return total, nil
}

func (w *chunkWriter) flush() error {
	if w.n == 0 {
		return nil
	}
	_, err := w.dst.Write(w.buf[:w.n])
	w.n = 0
	return err
}

// close flushes and recycles the buffer (the writer must not be used after).
func (w *chunkWriter) close() error {
	err := w.flush()
	w.dst = nil
	chunkWriters.Put(w)
	return err
}

// objectWriter is the tail every stored shard object — full, page-delta or
// CDC — is written through: the codec stage (pooled flate by default), whose
// output is checksummed and chunk-buffered on its way to the store stream.
type objectWriter struct {
	rank  int
	dst   io.WriteCloser
	chunk *chunkWriter
	comp  *countWriter
	cw    io.WriteCloser // codec stage
}

func newObjectWriter(rank int, dst io.WriteCloser, codec Codec) (*objectWriter, error) {
	o := &objectWriter{rank: rank, dst: dst}
	o.chunk = newChunkWriter(dst)
	o.comp = newCountWriter(o.chunk)
	cw, err := codec.NewWriter(o.comp)
	if err != nil {
		return nil, fmt.Errorf("ckpt: rank %d shard compressor: %w", rank, err)
	}
	o.cw = cw
	return o, nil
}

func (o *objectWriter) Write(p []byte) (int, error) { return o.cw.Write(p) }

// close finalizes the codec stream, flushes the chunk buffer and closes the
// store stream, reporting the stored object's size and XXH64 checksum.
func (o *objectWriter) close() (size int64, checksum uint64, err error) {
	if cerr := o.cw.Close(); cerr != nil {
		err = fmt.Errorf("ckpt: compressing rank %d shard: %w", o.rank, cerr)
	}
	if cerr := o.chunk.close(); cerr != nil && err == nil {
		err = fmt.Errorf("ckpt: writing rank %d shard: %w", o.rank, cerr)
	}
	if cerr := o.dst.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("ckpt: sealing rank %d shard stream: %w", o.rank, cerr)
	}
	return o.comp.n, o.comp.h.sum64(), err
}

// ShardSummary is what a ShardWriter reports at Close: the geometry and
// checksum the manifest's ShardInfo is stamped from. Sizes and the stored
// checksum are computed as the bytes flow — the whole point is that no one
// ever held the shard in memory to measure it. The raw XXH64 identity is not
// here: it belongs to the hash pass (HashCapture*), the one walk that reads
// every raw byte for identity.
type ShardSummary struct {
	Size     int64  // compressed bytes that reached the store
	Checksum uint64 // XXH64 over the compressed stream
	// PageSums is the CRC-32C page table of the raw stream, present only
	// when the writer was opened with a page size.
	PageSums []uint32
}

// ShardWriter streams one rank's full shard into a store stream: the rank
// image's logical stream flows (through the page summer, when asked for)
// into the object writer. Nothing shard-sized is ever buffered. Close
// finalizes the codec stream, closes the store writer, and returns the
// summary.
type ShardWriter struct {
	obj   *objectWriter
	raw   io.Writer // the head of the raw stream: pages, else obj
	pages *pageSummer
}

// NewShardWriterCodec opens a streaming shard encoder through an explicit
// codec. pageSize > 0 records a CRC-32C page table over the raw stream as it
// flows (reported at Close) — what compaction re-derives when it flattens a
// merged stream; commits take the table from the hash pass instead. The
// trailing bool is unused: it asked for a chunk table no caller wanted, kept
// only because bench/ passes it (ROADMAP).
func NewShardWriterCodec(rank int, dst io.WriteCloser, codec Codec, pageSize int64, _ bool) (*ShardWriter, error) {
	obj, err := newObjectWriter(rank, dst, codec)
	if err != nil {
		return nil, err
	}
	w := &ShardWriter{obj: obj, raw: obj}
	if pageSize > 0 {
		w.pages = newPageSummer(pageSize, obj)
		w.raw = w.pages
	}
	return w, nil
}

// Encode streams one rank image through the writer in the chunked raw
// layout. clockless zeroes ClockVT before encoding (the store-epoch
// identity contract; the clock rides in the manifest instead).
func (w *ShardWriter) Encode(ri *RankImage, clockless bool) error {
	return writeShardRaw(w.raw, ri, clockless)
}

// Close finalizes the codec stream, flushes the chunk buffer, closes the
// store writer, and reports the shard's geometry and checksum.
func (w *ShardWriter) Close() (ShardSummary, error) {
	size, checksum, err := w.obj.close()
	sum := ShardSummary{Size: size, Checksum: checksum}
	if w.pages != nil {
		sum.PageSums = w.pages.finish()
	}
	return sum, err
}

// shardRawHeader is the chunked raw layout's structured prefix: everything
// in a RankImage except the bulk payloads, whose lengths ride here and
// whose bytes follow raw (App, Proto, then each in-flight message's data,
// in manifest order). Inflight entries carry their metadata with Data
// nil'd. Only this header passes through gob — it is the piece that stays
// small no matter how big the rank's state is.
type shardRawHeader struct {
	Rank         int
	Desc         Descriptor
	ClockVT      float64
	AppLen       int64
	ProtoLen     int64
	Inflight     []mpi.InflightSnapshot
	InflightLens []int64
}

var headerGob, manifestGob gobCodec // every shard header and manifest record goes through these

// shardRawMagic heads the chunked raw stream so a decoder pointed at it
// with the wrong format fails loudly instead of gob-misparsing.
var shardRawMagic = []byte("MANASHD1")

// shardStream is THE description of one rank image's logical
// (RawFormatChunked) stream: an ordered list of byte segments —
// magic+gob(header) | App | Proto | each in-flight payload — that reference
// the captured image's slices in place. The hash pass, the full-shard
// writer and the partial-object range writer all walk this one list, so
// they agree on every offset by construction, and a page or chunk can be
// copied out by offset without streaming the bytes before it.
//
// The payload segments alias the captured image, which is immutable once
// captureRank returns — the app streamed its state into a buffer the
// coordinator owns (RankHooks.AppSnapshotTo): that is what lets the commit
// stamp the hash pass's identity onto bytes it writes later without
// re-hashing them.
type shardStream struct {
	ri     *RankImage // the image the segments alias
	segs   [][]byte   // non-empty segments, in stream order
	starts []int64    // starts[k] is segs[k]'s logical offset
	size   int64
}

// newShardStream lays out one rank image's logical stream. clockless zeroes
// ClockVT in the header (the store-epoch identity contract). Only the small
// header is encoded; payload bytes are referenced, not copied.
func newShardStream(ri *RankImage, clockless bool) (*shardStream, error) {
	hdr := shardRawHeader{
		Rank:     ri.Rank,
		Desc:     ri.Desc,
		ClockVT:  ri.ClockVT,
		AppLen:   int64(len(ri.App)),
		ProtoLen: int64(len(ri.Proto)),
	}
	if clockless {
		hdr.ClockVT = 0
	}
	if n := len(ri.Inflight); n > 0 {
		hdr.Inflight = make([]mpi.InflightSnapshot, n)
		hdr.InflightLens = make([]int64, n)
		for i, m := range ri.Inflight {
			hdr.InflightLens[i] = int64(len(m.Data))
			m.Data = nil
			hdr.Inflight[i] = m
		}
	}
	head, err := headerGob.encode(slices.Clip(shardRawMagic), &hdr)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encoding rank %d shard header: %w", ri.Rank, err)
	}
	s := &shardStream{ri: ri}
	add := func(seg []byte) {
		if len(seg) == 0 {
			return
		}
		s.segs = append(s.segs, seg)
		s.starts = append(s.starts, s.size)
		s.size += int64(len(seg))
	}
	add(head)
	add(ri.App)
	add(ri.Proto)
	for _, m := range ri.Inflight {
		add(m.Data)
	}
	return s, nil
}

// writeTo streams the whole logical stream into w.
func (s *shardStream) writeTo(w io.Writer) error {
	for _, seg := range s.segs {
		if _, err := w.Write(seg); err != nil {
			return fmt.Errorf("ckpt: writing rank %d shard: %w", s.ri.Rank, err)
		}
	}
	return nil
}

// writeRange copies the logical bytes [off, off+n) into w — reading only
// those bytes, wherever segment boundaries fall inside them — and returns
// their CRC-32C.
func (s *shardStream) writeRange(w io.Writer, off, n int64) (uint32, error) {
	if off < 0 || n < 0 || off > s.size-n {
		return 0, fmt.Errorf("ckpt: rank %d shard range [%d:%d) exceeds its %d-byte stream", s.ri.Rank, off, off+n, s.size)
	}
	// The segment holding off is the last one starting at or before it.
	k := sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > off }) - 1
	var crc uint32
	for ; n > 0; k++ {
		piece := s.segs[k][off-s.starts[k]:]
		if int64(len(piece)) > n {
			piece = piece[:n]
		}
		crc = crc32.Update(crc, crcTable, piece)
		if _, err := w.Write(piece); err != nil {
			return 0, fmt.Errorf("ckpt: writing rank %d shard: %w", s.ri.Rank, err)
		}
		off += int64(len(piece))
		n -= int64(len(piece))
	}
	return crc, nil
}

// writeShardRaw streams one rank image in the chunked raw layout. Payload
// slices are written straight from the captured image — no copies, no gob
// buffering beyond the small header message.
func writeShardRaw(w io.Writer, ri *RankImage, clockless bool) error {
	s, err := newShardStream(ri, clockless)
	if err != nil {
		return err
	}
	return s.writeTo(w)
}

// readShardRaw reverses writeShardRaw. rawSize is the manifest's declared
// total raw length; it caps each gob message of the header, and the header's
// payload lengths are validated against it — each bounded individually
// BEFORE summing, so neither a corrupted header nor an int64 overflow of the
// sum can drive a multi-gigabyte allocation. src must be a *bufio.Reader (the
// header is read from its buffer or through it, and the payload follows).
func readShardRaw(src *bufio.Reader, rawSize int64) (*RankImage, error) {
	hdr, err := readShardHeader(src, rawSize)
	if err != nil {
		return nil, err
	}
	ri := &RankImage{
		Rank:     hdr.Rank,
		Desc:     hdr.Desc,
		ClockVT:  hdr.ClockVT,
		Inflight: hdr.Inflight,
	}
	readPayload := func(buf []byte) ([]byte, error) {
		if len(buf) == 0 {
			return nil, nil
		}
		if _, err := io.ReadFull(src, buf); err != nil {
			return nil, fmt.Errorf("reading shard payload: %w", err)
		}
		return buf, nil
	}
	// The App gets headroom (withHeadroom): an app that keeps the bytes it
	// was restored from grows into it, and otherwise the restarted rank's
	// first capture writes into them (appImage).
	if ri.App, err = readPayload(make([]byte, hdr.AppLen, withHeadroom(int(hdr.AppLen)))); err != nil {
		return nil, err
	}
	if ri.Proto, err = readPayload(make([]byte, hdr.ProtoLen)); err != nil {
		return nil, err
	}
	for i := range ri.Inflight {
		if ri.Inflight[i].Data, err = readPayload(make([]byte, hdr.InflightLens[i])); err != nil {
			return nil, err
		}
	}
	return ri, nil
}

// trialShardRaw is readShardRaw without the image: the same header parse,
// then each declared payload read through scratch and dropped, failing
// where readShardRaw would and in its words. It returns the rank the header
// names.
func trialShardRaw(src *bufio.Reader, rawSize int64, scratch []byte) (int, error) {
	hdr, err := readShardHeader(src, rawSize)
	if err != nil {
		return 0, err
	}
	// Each payload is one io.ReadFull of its length, a scratch buffer at a
	// time.
	return hdr.Rank, hdr.eachPayload(func(l int64) error {
		for read := int64(0); read < l; {
			n, err := io.ReadFull(src, scratch[:min(int64(len(scratch)), l-read)])
			read += int64(n)
			if err == io.EOF && read > 0 {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return fmt.Errorf("reading shard payload: %w", err)
			}
		}
		return nil
	})
}

// readShardHeader reads a raw stream's magic and header, and budgets the
// payloads it declares against rawSize.
func readShardHeader(src *bufio.Reader, rawSize int64) (*shardRawHeader, error) {
	// The magic is checked in the reader's buffer, so nothing is allocated
	// for it; Discard then drops bytes Peek holds and cannot fail.
	magic, err := src.Peek(len(shardRawMagic))
	if err != nil {
		if err == io.EOF && len(magic) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("reading shard header: %w", err)
	}
	if !bytes.Equal(magic, shardRawMagic) {
		return nil, fmt.Errorf("shard raw stream has bad magic %q", magic)
	}
	src.Discard(len(magic))
	var hdr shardRawHeader
	if err := headerGob.decode(src, rawSize, &hdr); err != nil {
		return nil, fmt.Errorf("decoding shard header: %w", err)
	}
	if len(hdr.InflightLens) != len(hdr.Inflight) {
		return nil, fmt.Errorf("shard header declares negative or mismatched payloads")
	}
	// Budget the declared payloads against rawSize by SUBTRACTION — a
	// running remainder cannot overflow the way a running sum of
	// attacker-chosen int64 terms can.
	remaining := rawSize
	err = hdr.eachPayload(func(l int64) error {
		if l < 0 || l > remaining {
			return fmt.Errorf("shard header declares payloads beyond the manifest's %d raw bytes", rawSize)
		}
		remaining -= l
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &hdr, nil
}

// eachPayload visits the payload lengths the header declares, in stream
// order: App, Proto, then each in-flight message.
func (h *shardRawHeader) eachPayload(visit func(l int64) error) error {
	if err := visit(h.AppLen); err != nil {
		return err
	}
	if err := visit(h.ProtoLen); err != nil {
		return err
	}
	for _, l := range h.InflightLens {
		if err := visit(l); err != nil {
			return err
		}
	}
	return nil
}

// cappedMessageReader enforces a per-message length cap on gob's framing.
// gob allocates each message's buffer from the UNTRUSTED length prefix
// before reading a single body byte, and the entry reader necessarily
// feeds it bytes whose checksum has not been verified yet — without a cap,
// one corrupted prefix could demand a multi-gigabyte allocation (gob's own
// ceiling is 8 GB). This reader peeks at every prefix in full before handing
// any of it to gob and fails the read when the declared length exceeds the
// cap; the failure then surfaces as corruption once the checksum check
// runs. It never consumes more than it serves, so the caller can keep
// reading the underlying stream exactly where gob stopped.
type cappedMessageReader struct {
	br   *bufio.Reader
	cap  int64
	left uint64 // unserved bytes of the current message, its prefix included: at most 9 + MaxInt64, no wrap
	err  error
}

func newCappedMessageReader(br *bufio.Reader, cap int64) *cappedMessageReader {
	return &cappedMessageReader{br: br, cap: cap}
}

// nextPrefix validates the next message's whole length prefix, unread.
func (r *cappedMessageReader) nextPrefix() error {
	b, err := r.br.Peek(9) // the longest prefix
	n, w, ok := gobUint(b)
	switch {
	case len(b) > 0 && -int(int8(b[0])) > 8:
		return fmt.Errorf("gob message prefix byte %#x invalid", b[0])
	case !ok && len(b) > 1 && err == io.EOF: // cut inside its length bytes
		return io.ErrUnexpectedEOF
	case !ok:
		return err
	case n > uint64(max(r.cap, 0)):
		return fmt.Errorf("gob message of %d bytes exceeds the %d-byte shard bound", n, r.cap)
	}
	r.left = uint64(w) + n
	return nil
}

func (r *cappedMessageReader) Read(p []byte) (int, error) {
	if len(p) == 0 && r.err == nil {
		return 0, nil
	}
	if r.err == nil && r.left == 0 {
		r.err = r.nextPrefix()
	}
	if r.err != nil {
		return 0, r.err
	}
	if uint64(len(p)) > r.left {
		p = p[:r.left]
	}
	c, err := r.br.Read(p)
	r.left -= uint64(c)
	return c, err
}

// ReadByte makes the reader an io.ByteReader so gob uses it directly
// instead of wrapping it in a read-ahead bufio that would strand bytes.
func (r *cappedMessageReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// shardHash is what the identity pass yields for one rank: the stream it
// walked, its XXH64, and whichever table rode the walk.
type shardHash struct {
	stream    *shardStream
	sum       uint64
	pages     []uint32
	chunks    []RawChunk
	predicted int // chunks of the table proved from the hint, not gear-cut
}

// hashShard is the identity pass over one rank image: the ONE walk per
// checkpoint that reads every raw byte of the clockless logical stream. It
// yields the XXH64 identity (RawSum, RawSize) and, riding the same walk,
// the CRC-32C page table (pageSize > 0) or the content-defined chunk table
// (cdc) the partial-object diffs need; hint is the parent's chunk table for
// this rank, which only makes the CDC walk faster (see chunkSummer). The
// stream is the same segment list the writers later copy from, so the
// identities describe exactly the bytes that reach the store — and it is
// returned, so the commit copies from the very list that was hashed instead
// of laying it out (and gob-encoding the header) a second time.
func hashShard(ri *RankImage, pageSize int64, cdc bool, hint []ChunkRef) (shardHash, error) {
	s, err := newShardStream(ri, true)
	if err != nil {
		return shardHash{}, err
	}
	h := shardHash{stream: s}
	if cdc {
		cs := newChunkSummer(hint)
		if err := s.writeTo(cs); err != nil {
			return shardHash{}, err
		}
		h.chunks = cs.finish()
		h.sum, h.predicted = cs.raw.sum64(), cs.predicted
		return h, nil
	}
	var ps *pageSummer
	var dst io.Writer
	if pageSize > 0 {
		ps = newPageSummer(pageSize, nil)
		dst = ps
	}
	cw := newCountWriter(dst)
	if err := s.writeTo(cw); err != nil {
		return shardHash{}, err
	}
	if ps != nil {
		h.pages = ps.finish()
	}
	h.sum = cw.h.sum64()
	return h, nil
}

// ----------------------------------------------------------- page deltas

// Page-delta shards (RawFormatPageDelta). Whole-shard reuse is all or
// nothing: one hot byte in a rank re-encodes, re-compresses, and re-writes
// the entire shard. Delta mode splits the LOGICAL chunked stream into
// fixed-size pages, keeps a per-page CRC-32C table in the manifest, and on
// capture stores only the pages whose sums changed since the parent epoch —
// against a FULL base shard (deltas never chain off deltas), so restart
// reads exactly two objects and merges them at one-page memory.
//
// CRC-32C (Castagnoli) is the page checksum deliberately: the stdlib
// implementation is hardware-accelerated (SSE4.2/ARMv8 CRC instructions),
// and 32 bits a page keep the manifest's table small. XXH64 remains the
// whole-stream identity (RawSum) — reuse keying is unchanged.

// ShardPageBytes is the default page width. 64 KiB balances table size
// (16 KiB of sums per GiB of state) against delta granularity (one hot byte
// dirties 64 KiB, not a whole shard).
const ShardPageBytes = 64 << 10

// crcTable is the Castagnoli polynomial table (SIMD-backed in the stdlib).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pagesOf returns how many pageSize pages cover n bytes.
func pagesOf(n, pageSize int64) int64 {
	if pageSize <= 0 {
		return 0
	}
	return (n + pageSize - 1) / pageSize
}

// pageSummer accumulates a CRC-32C per fixed-size page of everything
// written through it, forwarding to dst (nil discards — hash-only passes).
type pageSummer struct {
	dst      io.Writer
	pageSize int64
	sums     []uint32
	crc      uint32
	fill     int64 // bytes accumulated into the current page
}

func newPageSummer(pageSize int64, dst io.Writer) *pageSummer {
	return &pageSummer{dst: dst, pageSize: pageSize}
}

func (p *pageSummer) Write(b []byte) (int, error) {
	written := 0
	for len(b) > 0 {
		chunk := b
		if room := p.pageSize - p.fill; int64(len(chunk)) > room {
			chunk = chunk[:room]
		}
		p.crc = crc32.Update(p.crc, crcTable, chunk)
		p.fill += int64(len(chunk))
		if p.fill == p.pageSize {
			p.sums = append(p.sums, p.crc)
			p.crc, p.fill = 0, 0
		}
		if p.dst != nil {
			n, err := p.dst.Write(chunk)
			written += n
			if err != nil {
				return written, err
			}
		} else {
			written += len(chunk)
		}
		b = b[len(chunk):]
	}
	return written, nil
}

// finish seals a trailing short page and returns the table. The summer must
// not be written to afterwards.
func (p *pageSummer) finish() []uint32 {
	if p.fill > 0 {
		p.sums = append(p.sums, p.crc)
		p.crc, p.fill = 0, 0
	}
	return p.sums
}

// shardRange is one span of a logical stream that a partial object stores —
// a dirty page or a fresh chunk — with its index in the page or chunk table
// and the CRC-32C the hash pass recorded for its bytes.
type shardRange struct {
	idx    int
	off, n int64
	crc    uint32
}

// writePartialShard stores si's partial object — page-delta or CDC — over a
// store stream: the listed ranges of the logical stream, in order, and
// nothing else (which extents they are is the manifest entry's to say). Only
// those ranges of the captured image are read: each is copied out of s by
// offset and its CRC-32C checked against the one the hash pass recorded, so a
// range that no longer holds the hashed bytes fails the commit attributed to
// its page or chunk instead of sealing an object the manifest's tables would
// reject at restart. On success the object's identities are stamped into si:
// Size/Checksum, and DeltaRawSize/DeltaRawSum for the stream the codec
// compressed. dst is closed on every path.
func writePartialShard(si *ShardInfo, dst io.WriteCloser, codec Codec, s *shardStream, ranges []shardRange) error {
	obj, err := newObjectWriter(si.Rank, dst, codec)
	if err != nil {
		//lint:allow closecheck object-writer setup failed; dst is abandoned and the setup error surfaces
		dst.Close()
		return err
	}
	unit := "chunk"
	if si.RawFormat == RawFormatPageDelta {
		unit = "page"
	}
	raw := newCountWriter(obj)
	var werr error
	for _, r := range ranges {
		crc, err := s.writeRange(raw, r.off, r.n)
		if err == nil && crc != r.crc {
			err = fmt.Errorf("ckpt: rank %d %s %d does not hold the bytes the hash pass saw (crc %08x, want %08x): captured image mutated during commit",
				si.Rank, unit, r.idx, crc, r.crc)
		}
		if err != nil {
			werr = err
			break
		}
	}
	size, checksum, cerr := obj.close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	si.Size, si.Checksum = size, checksum
	si.DeltaRawSize, si.DeltaRawSum = raw.n, raw.h.sum64()
	return nil
}

// validate sanity-checks a decoded manifest's shard table so that corrupted
// or hostile metadata fails with a diagnostic instead of driving later
// slicing or allocation off a cliff.
func (man *Manifest) validate() error {
	if man.Tier != 0 {
		return fmt.Errorf("ckpt: epoch %d sealed on storage tier %d, which this build does not model", man.Epoch, man.Tier)
	}
	if man.Ranks < 0 {
		return fmt.Errorf("ckpt: manifest declares %d ranks", man.Ranks)
	}
	if len(man.Shards) != man.Ranks {
		return fmt.Errorf("ckpt: manifest lists %d shards for %d ranks", len(man.Shards), man.Ranks)
	}
	for i := range man.Shards {
		si := &man.Shards[i]
		// Every producer writes the shard table in rank order (shard i IS
		// rank i), and consumers index job images by rank; a permuted or
		// duplicated table would silently restore the wrong rank's state,
		// so identity is enforced rather than assumed.
		if si.Rank != i {
			return fmt.Errorf("ckpt: shard %d names rank %d (table must be in rank order)", i, si.Rank)
		}
		if si.Size < 0 || si.RawSize < 0 {
			return fmt.Errorf("ckpt: rank %d shard has negative geometry (size %d, raw %d)",
				si.Rank, si.Size, si.RawSize)
		}
		if si.RefEpoch < 0 || si.RefEpoch > man.Epoch {
			return fmt.Errorf("ckpt: rank %d shard references epoch %d from epoch %d",
				si.Rank, si.RefEpoch, man.Epoch)
		}
		if si.RawFormat < RawFormatChunked || si.RawFormat > RawFormatCDC {
			return fmt.Errorf("ckpt: rank %d shard declares unknown raw format %d", si.Rank, si.RawFormat)
		}
		if si.CodecID < CodecFlate || si.CodecID > CodecNone {
			return fmt.Errorf("ckpt: rank %d shard declares unknown codec %d", si.Rank, si.CodecID)
		}
		if si.PageSize < 0 || si.BaseSize < 0 || si.DeltaRawSize < 0 {
			return fmt.Errorf("ckpt: rank %d shard has negative page geometry (page %d, base %d, delta raw %d)",
				si.Rank, si.PageSize, si.BaseSize, si.DeltaRawSize)
		}
		if si.PageSize > CDCMaxChunkBytes {
			// The merge buffers one extent, so a page may be no longer than a
			// chunk may.
			return fmt.Errorf("ckpt: rank %d shard has page size %d (want at most %d)",
				si.Rank, si.PageSize, int64(CDCMaxChunkBytes))
		}
		if len(si.PageSums) > 0 || si.RawFormat == RawFormatPageDelta {
			// Any recorded page table must tile the logical stream exactly —
			// a wrong count would mis-attribute pages or index out of range.
			if si.PageSize <= 0 {
				return fmt.Errorf("ckpt: rank %d shard has a page table but page size %d", si.Rank, si.PageSize)
			}
			if int64(len(si.PageSums)) != pagesOf(si.RawSize, si.PageSize) {
				return fmt.Errorf("ckpt: rank %d shard page table has %d sums for %d pages",
					si.Rank, len(si.PageSums), pagesOf(si.RawSize, si.PageSize))
			}
		}
		if si.RawFormat == RawFormatPageDelta {
			if si.BaseEpoch < 0 || si.BaseEpoch >= si.RefEpoch {
				return fmt.Errorf("ckpt: rank %d delta shard stored in epoch %d names base epoch %d (base must be an earlier full shard)",
					si.Rank, si.RefEpoch, si.BaseEpoch)
			}
			if !sort.SliceIsSorted(si.DeltaPages, func(a, b int) bool { return si.DeltaPages[a] < si.DeltaPages[b] }) {
				return fmt.Errorf("ckpt: rank %d delta shard page list is not sorted", si.Rank)
			}
			for j, p := range si.DeltaPages {
				if p < 0 || int64(p) >= pagesOf(si.RawSize, si.PageSize) {
					return fmt.Errorf("ckpt: rank %d delta shard names page %d of %d", si.Rank, p, pagesOf(si.RawSize, si.PageSize))
				}
				if j > 0 && si.DeltaPages[j-1] == p {
					return fmt.Errorf("ckpt: rank %d delta shard lists page %d twice", si.Rank, p)
				}
			}
		}
		if si.RawFormat == RawFormatCDC && len(si.Chunks) == 0 {
			// A logical stream always holds at least its shard header, so a
			// CDC entry without a chunk table is unreconstructable.
			return fmt.Errorf("ckpt: rank %d cdc shard has no chunk table", si.Rank)
		}
		if len(si.Chunks) > 0 {
			// Any recorded chunk table must tile the logical stream exactly,
			// within the chunker's size bounds (the merge buffers one chunk,
			// so an oversized Len would drive an unbounded allocation), with
			// every source address non-negative and no newer than the epoch
			// that stored the entry.
			var total int64
			for j := range si.Chunks {
				c := &si.Chunks[j]
				if c.Len <= 0 || c.Len > CDCMaxChunkBytes {
					return fmt.Errorf("ckpt: rank %d chunk %d has length %d (want 1..%d)",
						si.Rank, j, c.Len, int64(CDCMaxChunkBytes))
				}
				if c.SrcOff < 0 || c.SrcRank < 0 || c.SrcEpoch < 0 || c.SrcEpoch > si.RefEpoch {
					return fmt.Errorf("ckpt: rank %d chunk %d has source epoch %d rank %d offset %d (stored in epoch %d)",
						si.Rank, j, c.SrcEpoch, c.SrcRank, c.SrcOff, si.RefEpoch)
				}
				if total > math.MaxInt64-c.Len {
					return fmt.Errorf("ckpt: rank %d chunk table overflows", si.Rank)
				}
				total += c.Len
			}
			if total != si.RawSize {
				return fmt.Errorf("ckpt: rank %d chunk table covers %d bytes of a %d-byte stream",
					si.Rank, total, si.RawSize)
			}
		}
		// A partial object's stored stream is its own extents' bytes and
		// nothing else; an entry that says otherwise (the retired layout put
		// a header in front of them) does not describe an object this
		// reader can address.
		if own, _ := si.Sources(); si.Partial() && own != si.DeltaRawSize {
			return fmt.Errorf("ckpt: rank %d partial shard stores %d stream bytes but its own extents cover %d",
				si.Rank, si.DeltaRawSize, own)
		}
	}
	return nil
}

// manifestRecordMagic heads a standalone manifest record — the per-epoch
// commit file a Store seals each capture with (see FORMAT.md): magic, u32
// gob length, u64 XXH64 of the gob, manifest gob.
var manifestRecordMagic = []byte("MANAMFT3")

// EncodeManifestRecord serializes a manifest as a standalone, checksummed
// record (the store's per-epoch manifest object).
func EncodeManifestRecord(man *Manifest) ([]byte, error) {
	out := make([]byte, 20) // the magic, then the length and checksum words filled in below
	copy(out, manifestRecordMagic)
	out, err := manifestGob.encode(out, man)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encoding manifest record: %w", err)
	}
	binary.LittleEndian.PutUint32(out[8:], uint32(len(out)-20))
	binary.LittleEndian.PutUint64(out[12:], Sum64(out[20:]))
	return out, nil
}

// DecodeManifestRecord reverses EncodeManifestRecord, verifying the magic
// and checksum and validating the shard table.
func DecodeManifestRecord(data []byte) (*Manifest, error) {
	if len(data) < 20 || !bytes.Equal(data[:len(manifestRecordMagic)], manifestRecordMagic) {
		return nil, fmt.Errorf("ckpt: not a manifest record (%d bytes)", len(data))
	}
	headLen := int64(binary.LittleEndian.Uint32(data[8:12]))
	wantSum := binary.LittleEndian.Uint64(data[12:20])
	if have, want := int64(len(data)), 20+headLen; have < want {
		return nil, fmt.Errorf("ckpt: manifest record truncated (declares %d bytes, have %d)", want, have)
	} else if have > want {
		return nil, fmt.Errorf("ckpt: manifest record has %d trailing bytes (declares %d bytes, have %d)", have-want, want, have)
	}
	head := data[20:]
	if got := Sum64(head); got != wantSum {
		return nil, fmt.Errorf("ckpt: manifest record corrupted (checksum %x, want %x)", got, wantSum)
	}
	var man Manifest
	n, err := manifestGob.decodeBytes(head, &man)
	if err != nil {
		return nil, fmt.Errorf("ckpt: decoding manifest record: %w", err)
	}
	if n < len(head) {
		return nil, fmt.Errorf("ckpt: manifest record has %d bytes after its manifest", len(head)-n)
	}
	if err := man.validate(); err != nil {
		return nil, err
	}
	return &man, nil
}
