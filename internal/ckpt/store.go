package ckpt

// Checkpoint stores: where the staged pipeline's commit stage lands.
//
// A Store holds a chain of capture epochs, each a sealed manifest (FORMAT.md)
// and a shard object per rank whose state changed. Sealing order is the
// commit contract: shards first, the manifest last, so a crash mid-commit
// leaves an unsealed epoch that Epochs() does not report and SweepUnsealed
// reclaims. One epoch layer (layer) holds that contract over an object layer
// of five calls (objects): MemStore is it over a map, FileStore over a
// directory per epoch (filestore.go), synced so a seal survives power loss.
//
// A store moves bytes and knows nothing of what they cost: both sides of the
// storage model are functions of a sealed manifest (WriteBytesOf, ReadSetOf),
// and the coordinator prices an epoch from them when it seals it.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mana/internal/netmodel"
)

// Store is the commit target of the checkpoint pipeline: shard objects plus a
// sealed manifest per epoch. Shards are STREAMED (PutShardStream, OpenShard),
// so neither the encoder nor a restart ever needs a whole-shard []byte.
type Store interface {
	// PutShardStream opens a writer for one rank's shard object, readable
	// (on a FileStore, durable) once the writer closes without error.
	PutShardStream(epoch, rank int) (io.WriteCloser, error)
	// OpenShard opens a streaming reader over a shard object's stored bytes.
	OpenShard(epoch, rank int) (io.ReadCloser, error)
	// GetShard reads a whole shard object into a slice the caller owns.
	GetShard(epoch, rank int) ([]byte, error)
	// PutManifest seals an epoch: Epochs reports it once this returns.
	PutManifest(epoch int, man *Manifest) error
	// GetManifest retrieves a sealed epoch's manifest.
	GetManifest(epoch int) (*Manifest, error)
	// Epochs lists sealed epochs in ascending order.
	Epochs() ([]int, error)
	// DeleteEpoch removes an epoch, unsealing it FIRST so a crash never
	// leaves a sealed manifest over missing shards, and returns the bytes
	// reclaimed: zero for an absent epoch, so an interrupted GC can rerun.
	DeleteEpoch(epoch int) (int64, error)
	// SweepUnsealed removes every unsealed epoch numbered below `before`,
	// returning the bytes and objects reclaimed. The bound makes it safe
	// beside a commit in flight, which is numbered above the newest seal,
	// while failed-commit debris is numbered below a later one.
	SweepUnsealed(before int) (bytes int64, objects int, err error)
}

// objKey names one object: slot is a rank's shard or a manifest name below.
type objKey struct{ epoch, slot int }

const (
	manifestSlot = -1 // the seal: an epoch is sealed exactly while it exists
	manifestTemp = -2 // the manifest while it is written, and once unsealed
)

// objects is an object layer. Each call says what it makes durable — what a
// power loss after it returns cannot take back. An absent object or epoch is
// an error wrapping fs.ErrNotExist.
type objects interface {
	// create opens a stream for an object, replacing any of that name. Once
	// Close returns nil its bytes are durable; its name is not until the
	// epoch's next publish.
	create(k objKey) (io.WriteCloser, error)
	open(k objKey) (io.ReadCloser, error) // reads; nothing is made durable
	// publish renames an epoch's object from one slot to another, replacing
	// what is there. Every name created or removed in the epoch before, and
	// the epoch's own name, is durable before the rename, and the rename is
	// durable when publish returns.
	publish(epoch, from, to int) error
	// remove deletes an epoch and all its objects, returning the bytes and
	// objects it held. Nothing is durable: a power loss may bring any back.
	remove(epoch int) (int64, int, error)
	// list returns every epoch holding objects, ascending; nothing is durable.
	list() ([]int, error)
}

// writeClose writes b through w and closes it, the close being the commit.
func writeClose(w io.WriteCloser, b []byte) error {
	if _, err := w.Write(b); err != nil {
		//lint:allow closecheck write already failed; the write error is the one to surface
		w.Close()
		return err
	}
	return w.Close()
}

// layer is the epoch layer: the Store contract, once, over an object layer.
type layer struct{ objs objects }

// PutShardStream implements Store.
func (l layer) PutShardStream(epoch, rank int) (io.WriteCloser, error) {
	return l.objs.create(objKey{epoch, rank})
}

// OpenShard implements Store.
func (l layer) OpenShard(epoch, rank int) (io.ReadCloser, error) {
	return l.objs.open(objKey{epoch, rank})
}

// GetShard implements Store.
func (l layer) GetShard(epoch, rank int) ([]byte, error) { return l.read(objKey{epoch, rank}) }

// read reads a whole object into a slice of the caller's own, allocated once
// when the reader knows its length (a memReader does).
func (l layer) read(k objKey) ([]byte, error) {
	rc, err := l.objs.open(k)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	var buf bytes.Buffer
	if r, ok := rc.(interface{ Len() int }); ok {
		buf.Grow(r.Len() + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err = buf.ReadFrom(rc)
	return buf.Bytes(), err
}

// PutManifest implements Store. The record is written to the temp object and
// closed (durable), then published over the manifest's name, which makes the
// epoch's shard names durable first: a crash leaves it sealed whole or not.
func (l layer) PutManifest(epoch int, man *Manifest) error {
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		return err
	}
	w, err := l.objs.create(objKey{epoch, manifestTemp})
	if err == nil {
		err = writeClose(w, rec)
	}
	if err != nil {
		return err
	}
	return l.objs.publish(epoch, manifestTemp, manifestSlot)
}

// GetManifest implements Store.
func (l layer) GetManifest(epoch int) (*Manifest, error) {
	rec, err := l.read(objKey{epoch, manifestSlot})
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading epoch %d manifest: %w", epoch, err)
	}
	man, err := DecodeManifestRecord(rec)
	if err != nil {
		return nil, fmt.Errorf("ckpt: epoch %d: %w", epoch, err)
	}
	return man, nil
}

// partition splits the epochs below `before` into sealed and unsealed. Only
// an absent manifest means unsealed: any other failure to open it (EIO,
// ESTALE) is returned, lest a sealed epoch be hidden and handed to a sweep.
func (l layer) partition(before int) (sealed, unsealed []int, err error) {
	all, err := l.objs.list()
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: listing store: %w", err)
	}
	for _, e := range all {
		if e >= before {
			break
		}
		rc, err := l.objs.open(objKey{e, manifestSlot})
		switch {
		case err == nil:
			rc.Close()
			sealed = append(sealed, e)
		case errors.Is(err, fs.ErrNotExist):
			unsealed = append(unsealed, e)
		default:
			return nil, nil, fmt.Errorf("ckpt: reading epoch %d manifest: %w", e, err)
		}
	}
	return sealed, unsealed, nil
}

// Epochs implements Store.
func (l layer) Epochs() ([]int, error) {
	sealed, _, err := l.partition(math.MaxInt)
	return sealed, err
}

// DeleteEpoch implements Store. The manifest is published back to its temp
// name, durably, before any shard goes: a power loss mid-delete leaves the
// epoch sealed and whole, or unsealed debris (as a failed commit's is).
func (l layer) DeleteEpoch(epoch int) (int64, error) {
	if err := l.objs.publish(epoch, manifestSlot, manifestTemp); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("ckpt: unsealing epoch %d: %w", epoch, err)
	}
	n, _, err := l.objs.remove(epoch)
	return n, err
}

// SweepUnsealed implements Store.
func (l layer) SweepUnsealed(before int) (int64, int, error) {
	_, unsealed, err := l.partition(before)
	if err != nil {
		return 0, 0, err
	}
	var bytes int64
	var objects int
	for _, e := range unsealed {
		b, n, err := l.objs.remove(e)
		bytes, objects = bytes+b, objects+n
		if err != nil {
			return bytes, objects, fmt.Errorf("ckpt: sweeping epoch %d: %w", e, err)
		}
	}
	return bytes, objects, nil
}

// MemStore is an in-memory Store, safe for concurrent use: the epoch layer
// over a map epoch → slot → bytes. An object is installed whole as its writer
// closes and never changes after, so readers serve the stored slice itself.
type MemStore struct {
	layer
	mu     sync.Mutex
	epochs map[int]map[int][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	m := &MemStore{epochs: make(map[int]map[int][]byte)}
	m.layer = layer{m}
	return m
}

// memWriter accumulates an object privately and installs it at Close.
type memWriter struct {
	bytes.Buffer
	m *MemStore
	k objKey
}

func (w *memWriter) Close() error {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	if w.m.epochs[w.k.epoch] == nil {
		w.m.epochs[w.k.epoch] = make(map[int][]byte)
	}
	w.m.epochs[w.k.epoch][w.k.slot] = w.Bytes()
	return nil
}

// memReader serves a stored object in place.
type memReader struct{ bytes.Reader }

func (*memReader) Close() error { return nil }

func (m *MemStore) create(k objKey) (io.WriteCloser, error) { return &memWriter{m: m, k: k}, nil }

func (m *MemStore) open(k objKey) (io.ReadCloser, error) {
	m.mu.Lock()
	b, ok := m.epochs[k.epoch][k.slot]
	m.mu.Unlock()
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: fmt.Sprintf("epoch %d slot %d", k.epoch, k.slot), Err: fs.ErrNotExist}
	}
	r := &memReader{}
	r.Reset(b)
	return r, nil
}

func (m *MemStore) publish(epoch, from, to int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.epochs[epoch][from]
	if !ok {
		return fs.ErrNotExist
	}
	delete(m.epochs[epoch], from)
	m.epochs[epoch][to] = b
	return nil
}

func (m *MemStore) remove(epoch int) (int64, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, b := range m.epochs[epoch] {
		n += int64(len(b))
	}
	objects := len(m.epochs[epoch])
	delete(m.epochs, epoch)
	return n, objects, nil
}

func (m *MemStore) list() ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.epochs))
	for e := range m.epochs {
		out = append(out, e)
	}
	sort.Ints(out)
	return out, nil
}

// ------------------------------------------------------------ commit stage

// CommitStats summarizes one epoch commit: the incremental differ's verdict
// plus the bytes that actually traveled to storage.
type CommitStats struct {
	Epoch        int
	FreshShards  int
	ReusedShards int
	FreshBytes   int64 // compressed bytes written this epoch
	ReusedBytes  int64 // compressed bytes referenced from earlier epochs
	// DeltaShards/DeltaBytes count the subset of the fresh set written as
	// page-delta objects (dirty pages only) rather than full shards; their
	// bytes are included in FreshBytes.
	DeltaShards int
	DeltaBytes  int64
	// CDCShards/CDCBytes count the subset of the fresh set written as
	// content-defined-chunk objects (fresh chunks only); their bytes are
	// included in FreshBytes.
	CDCShards int
	CDCBytes  int64
	// CDCPredictedChunks is sums.PredictedChunks: how many of this capture's
	// chunks the identity pass took from the parent's table.
	CDCPredictedChunks int
}

// CommitCapture runs stages 2–3 of the checkpoint pipeline for one captured
// job image: hash every rank's shard identity, diff against the parent
// manifest, stream the fresh shards into the store, and seal the epoch's
// manifest. parent is the previously committed manifest (nil for the
// chain's first epoch, or when incremental reuse is disabled).
//
// A shard is reused when its clockless raw gob hashes identically (RawSum,
// RawSize) to the parent epoch's entry for the same rank; the manifest then
// records a reference to the epoch that physically holds the bytes
// (reference chains are collapsed: RefEpoch is copied from the parent
// entry, never left pointing at an intermediate reference).
func CommitCapture(store Store, epoch int, parent *Manifest, img *JobImage) (*Manifest, *CommitStats, error) {
	sums, err := HashCapture(img)
	if err != nil {
		return nil, nil, err
	}
	return CommitStreamed(store, epoch, parent, img, sums, nil)
}

// ShardSums holds stage 2a's output: every rank's clockless shard identity
// (raw gob size and XXH64 hash), computed by streaming each gob through a
// counter — no raw bytes are retained. It depends only on the image — not
// on the parent manifest — so the coordinator computes it BEFORE taking the
// epoch-ordering ticket, letting concurrent background commits hash in
// parallel instead of queueing their CPU work behind the previous epoch.
type ShardSums struct {
	Sums  []uint64
	Sizes []int64
	// PageSize/PageSums carry the per-rank CRC-32C page tables when the
	// capture was hashed for page-delta commits (HashCapturePaged); nil
	// PageSums means whole-shard diffing only. The tables are what
	// CommitStreamed diffs against the parent's to find dirty pages.
	PageSize int64
	PageSums [][]uint32
	// Chunks carries the per-rank content-defined chunk tables when the
	// capture was hashed for CDC commits (HashCaptureCDC); nil means no
	// chunk-level diffing. CommitStreamed looks each chunk up in the parent
	// chain's content-addressed index.
	Chunks [][]RawChunk
	// PredictedChunks counts the entries of Chunks that were proved against
	// the parent's table instead of cut by the gear loop (zero without a
	// hint: the exported HashCaptureCDC has none).
	PredictedChunks int
	// streams holds the identity pass's per-rank stream layouts for
	// CommitStreamed to copy from (read-only there, so one ShardSums serves
	// any number of commits of its image). Nil on a ShardSums built by hand;
	// the commit then lays the streams out itself.
	streams []*shardStream
}

// HashCapture hashes every rank's clockless shard identity across
// GOMAXPROCS workers, using O(workers) memory regardless of shard sizes.
// This is the identity pass: the only walk between request and seal that
// reads every raw byte of the captured image for its XXH64 (CommitStreamed
// stamps the manifest's RawSum/RawSize from it and never re-hashes).
func HashCapture(img *JobImage) (*ShardSums, error) {
	return hashCapture(img, 0, false, nil)
}

// HashCapturePaged additionally records each rank's CRC-32C page table over
// the same pass (the page CRCs ride the identity stream — no second walk),
// arming CommitStreamed's page-delta diff. pageSize <= 0 selects the
// default ShardPageBytes; a page above CDCMaxChunkBytes is refused, as a
// manifest stating one would be.
func HashCapturePaged(img *JobImage, pageSize int64) (*ShardSums, error) {
	if pageSize <= 0 {
		pageSize = ShardPageBytes
	}
	if pageSize > CDCMaxChunkBytes {
		return nil, fmt.Errorf("ckpt: page size %d above the %d a manifest accepts", pageSize, int64(CDCMaxChunkBytes))
	}
	return hashCapture(img, pageSize, false, nil)
}

// HashCaptureCDC records each rank's content-defined chunk table over the
// same single streaming pass as the XXH64 identity (the gear hash and chunk
// CRCs ride the identity stream — no second walk), arming CommitStreamed's
// content-addressed chunk diff.
func HashCaptureCDC(img *JobImage) (*ShardSums, error) {
	return hashCapture(img, 0, true, nil)
}

// hashCapture is the identity pass behind the three exports. hint, used in
// CDC mode only, is a sealed manifest of the same job — normally the diff
// parent — whose chunk tables let the chunker prove most cuts instead of
// searching for them; it never changes the result.
func hashCapture(img *JobImage, pageSize int64, cdc bool, hint *Manifest) (*ShardSums, error) {
	n := len(img.Images)
	sums := &ShardSums{Sums: make([]uint64, n), Sizes: make([]int64, n), streams: make([]*shardStream, n)}
	switch {
	case cdc:
		sums.Chunks = make([][]RawChunk, n)
	case pageSize > 0:
		sums.PageSize = pageSize
		sums.PageSums = make([][]uint32, n)
	}
	errs := make([]error, n)
	var predicted atomic.Int64
	fanOut(n, encodeWorkers(n), func(i int) {
		ri := &img.Images[i]
		var h shardHash
		h, errs[i] = hashShard(ri, pageSize, cdc, hintFor(hint, i, ri.Rank))
		if errs[i] != nil {
			return
		}
		sums.streams[i], sums.Sums[i], sums.Sizes[i] = h.stream, h.sum, h.stream.size
		if sums.PageSums != nil {
			sums.PageSums[i] = h.pages
		}
		if sums.Chunks != nil {
			sums.Chunks[i] = h.chunks
		}
		predicted.Add(int64(h.predicted))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sums.PredictedChunks = int(predicted.Load())
	return sums, nil
}

// hintFor picks image i's chunk table out of a hint manifest: the entry at
// the same position when it is the same rank's (a manifest lists shards in
// image order), nothing otherwise — a parent with fewer shards, or another
// job's.
func hintFor(hint *Manifest, i, rank int) []ChunkRef {
	if hint == nil || i >= len(hint.Shards) || hint.Shards[i].Rank != rank {
		return nil
	}
	return hint.Shards[i].Chunks
}

// CommitStreamed runs the ordered tail of the commit — buildCommit through
// the flate codec — and seals the manifest as built.
func CommitStreamed(store Store, epoch int, parent *Manifest, img *JobImage, sums *ShardSums, budget *StreamBudget) (*Manifest, *CommitStats, error) {
	man, st, err := buildCommit(store, FlateCodec(0), epoch, parent, img, sums, budget)
	if err != nil {
		return nil, nil, err
	}
	if err := store.PutManifest(epoch, man); err != nil {
		return nil, nil, err
	}
	return man, st, nil
}

// buildCommit diffs the hashed shard identities against the parent manifest
// and streams the fresh set into the store (each shard codec+checksum
// straight into its PutShardStream writer — no whole-shard slice anywhere),
// returning the epoch's finished manifest UNSEALED: raw identities
// (RawSum/RawSize, page and chunk tables) from sums, which must be the
// identity pass over this very img, stored sizes and checksums from the
// writers. Nothing here re-hashes the raw stream, and a partial object
// reads only the pages or chunks it stores. budget bounds the fan-out's
// in-flight encode memory; nil selects a default-capacity budget. The
// caller seals (PutManifest) or, on error, removes the epoch's debris.
//
// When sums carries page tables (HashCapturePaged), the diff is page-
// granular: a changed rank whose parent entry has a compatible page table
// is written as a RawFormatPageDelta object holding only its dirty pages,
// anchored at the chain's most recent FULL shard for that rank (deltas
// never chain off deltas, so restart reads exactly two objects). The
// manifest seals as ManifestV4.
func buildCommit(store Store, codec Codec, epoch int, parent *Manifest, img *JobImage, sums *ShardSums, budget *StreamBudget) (*Manifest, *CommitStats, error) {
	n := len(img.Images)
	if budget == nil {
		budget = NewStreamBudget(0)
	}
	deltaMode := sums.PageSums != nil
	cdcMode := sums.Chunks != nil

	parentByRank := make(map[int]*ShardInfo)
	if parent != nil {
		for i := range parent.Shards {
			parentByRank[parent.Shards[i].Rank] = &parent.Shards[i]
		}
	}

	// The content-addressed chunk index: every chunk the parent chain
	// already stores, keyed by content identity, valued by its physical
	// source address — built from the parent manifest's tables alone, no
	// object reads. Cross-rank entries are included deliberately: duplicate
	// state between ranks dedups exactly like duplicate state across time.
	var chunkIndex map[chunkKey]ChunkRef
	if cdcMode && parent != nil {
		chunkIndex = make(map[chunkKey]ChunkRef)
		for i := range parent.Shards {
			for _, c := range parent.Shards[i].Chunks {
				if _, ok := chunkIndex[keyOfRef(&c)]; !ok {
					chunkIndex[keyOfRef(&c)] = c
				}
			}
		}
	}

	man := &Manifest{
		Algorithm:          img.Algorithm,
		Ranks:              img.Ranks,
		PPN:                img.PPN,
		CaptureVT:          img.CaptureVT,
		PaddedBytesPerRank: img.PaddedBytesPerRank,
		Shards:             make([]ShardInfo, n),
		Version:            ManifestV3,
		Epoch:              epoch,
		Parent:             -1,
	}
	if deltaMode {
		man.Version = ManifestV4
	}
	if cdcMode {
		man.Version = ManifestV5
	}
	if parent != nil {
		man.Parent = parent.Epoch
	}

	// Diff against the parent BEFORE streaming: on the low-churn jobs
	// incremental checkpointing targets, most shards are references and
	// re-encoding them would be pure waste. Only the fresh set streams.
	st := &CommitStats{Epoch: epoch, CDCPredictedChunks: sums.PredictedChunks}
	fresh := make([]int, 0, n)
	for i := range img.Images {
		ri := &img.Images[i]
		si := ShardInfo{
			Rank:      ri.Rank,
			RawSize:   sums.Sizes[i],
			RawSum:    sums.Sums[i],
			ClockVT:   ri.ClockVT,
			RefEpoch:  epoch,
			RawFormat: RawFormatChunked,
			CodecID:   codec.ID(), // fresh shards; the reuse case overrides
		}
		if deltaMode {
			si.PageSize = sums.PageSize
			si.PageSums = sums.PageSums[i]
		}
		p := parentByRank[ri.Rank]
		switch {
		// Reuse keys on the raw identity, which includes the layout: a
		// legacy-format parent shard never hashes equal to a chunked one, so
		// a chain resumed from an old store re-writes (not mis-references)
		// its first capture. The reused entry copies the parent's format so
		// decode follows the bytes that actually exist.
		case p != nil && p.RawSum == sums.Sums[i] && p.RawSize == sums.Sizes[i]:
			// Unchanged since the parent capture: reference the bytes where
			// they already live instead of rewriting them. A page-delta
			// parent copies its whole delta identity — the reference decodes
			// through the same base+delta pair. (A zero-dirty-pages epoch is
			// exactly this case: identical logical bytes are a reference,
			// never an empty delta object.)
			si.RefEpoch = p.RefEpoch
			si.Size = p.Size
			si.Checksum = p.Checksum
			si.RawFormat = p.RawFormat
			si.CodecID = p.CodecID
			if p.RawFormat == RawFormatPageDelta {
				// The stored object is the parent's delta: its geometry, not
				// this capture's, is what decode must follow.
				si.PageSize = p.PageSize
				si.PageSums = p.PageSums
				si.BaseEpoch = p.BaseEpoch
				si.DeltaPages = p.DeltaPages
				si.BaseSize = p.BaseSize
				si.DeltaRawSize = p.DeltaRawSize
				si.DeltaRawSum = p.DeltaRawSum
			} else if len(si.PageSums) == 0 {
				// Keep a parent-recorded page table alive across reuse even
				// when this commit is not hashing pages.
				si.PageSize = p.PageSize
				si.PageSums = p.PageSums
			}
			if p.RawFormat == RawFormatCDC {
				// The stored object is the parent's CDC object: decode needs
				// its stored-stream identity.
				si.DeltaRawSize = p.DeltaRawSize
				si.DeltaRawSum = p.DeltaRawSum
			}
			// Keep the chunk table alive across reuse: the refs address
			// sealed physical objects verbatim, so later epochs keep
			// deduplicating against them (and CDC entries stay decodable).
			si.Chunks = p.Chunks
			st.ReusedShards++
			st.ReusedBytes += p.Size
		case cdcMode:
			// Changed. Look every chunk up in the parent chain's index:
			// chunks whose content already lives in a sealed object are
			// referenced verbatim (one hop, never a chain), the rest are
			// fresh and self-sourced. Past half the bytes fresh, a
			// self-contained full shard beats the fan-in a CDC object costs
			// at restart — same re-anchoring rule as page deltas.
			table := sums.Chunks[i]
			refs := make([]ChunkRef, len(table))
			var reused, stored int64
			for k := range table {
				if r, ok := chunkIndex[keyOfRaw(&table[k])]; ok {
					refs[k] = r
					reused += r.Len
				} else {
					// Fresh: the next bytes of this rank's own object, which
					// holds its fresh chunks back to back in index order.
					refs[k] = ChunkRef{Len: table[k].Len, CRC: table[k].CRC,
						Sum: table[k].Sum, SrcEpoch: epoch, SrcRank: ri.Rank, SrcOff: stored}
					stored += table[k].Len
				}
			}
			if reused*2 >= sums.Sizes[i] && len(table) > 0 {
				si.RawFormat = RawFormatCDC
				si.Chunks = refs
			} else {
				si.Chunks = selfChunkRefs(table, epoch, ri.Rank)
			}
			fresh = append(fresh, i)
		case deltaMode && deltaEligible(p, sums, i):
			// Changed, but page-diffable: store only the dirty pages against
			// the chain's full base shard for this rank.
			dirty := dirtyPages(p, sums.PageSums[i])
			baseEpoch, baseSize := p.RefEpoch, p.Size
			if p.RawFormat == RawFormatPageDelta {
				baseEpoch, baseSize = p.BaseEpoch, p.BaseSize
			}
			// Re-anchor once the dirty set stops paying: past half the pages
			// the delta object (plus the base read at restart) costs more
			// than a self-contained full shard ever would.
			if int64(len(dirty))*2 > pagesOf(sums.Sizes[i], sums.PageSize) || len(dirty) == 0 {
				fresh = append(fresh, i)
				break
			}
			si.RawFormat = RawFormatPageDelta
			si.BaseEpoch = baseEpoch
			si.BaseSize = baseSize
			si.DeltaPages = dirty
			fresh = append(fresh, i)
		default:
			fresh = append(fresh, i)
		}
		man.Shards[i] = si
	}

	// Stream the fresh shards concurrently, each worker's in-flight state
	// charged against the budget: the fan-out degrades gracefully to fewer
	// concurrent streams as the budget tightens, never to more memory.
	ferrs := make([]error, len(fresh))
	fanOut(len(fresh), encodeWorkers(len(fresh)), func(j int) {
		ferrs[j] = func() error {
			i := fresh[j]
			ri := &img.Images[i]
			si := &man.Shards[i]
			budget.Acquire(shardStreamFootprint)
			defer budget.Release(shardStreamFootprint)
			// The identity pass's layout of this very rank image, when sums
			// carries one; anything else is laid out here, and the size check
			// below catches sums that belong to another image.
			var stream *shardStream
			if sums.streams != nil && sums.streams[i].ri == ri {
				stream = sums.streams[i]
			} else {
				var err error
				if stream, err = newShardStream(ri, true); err != nil {
					return err
				}
			}
			if stream.size != si.RawSize {
				return fmt.Errorf("ckpt: rank %d shard is %d raw bytes but was hashed as %d (sums are not this image's)",
					ri.Rank, stream.size, si.RawSize)
			}
			dst, err := store.PutShardStream(epoch, si.Rank)
			if err != nil {
				return err
			}
			// RawSum/RawSize were stamped from the hash pass above; the
			// writers below only move bytes. A full shard streams the whole
			// segment list; a partial object copies its dirty pages or fresh
			// chunks out of it by offset, CRC-checked against the hash pass's
			// tables, and reads nothing else of the image.
			if si.Partial() {
				return writePartialShard(si, dst, codec, stream, si.ownRanges())
			}
			sw, err := NewShardWriterCodec(ri.Rank, dst, codec, 0, false)
			if err != nil {
				//lint:allow closecheck shard-writer setup failed; dst is abandoned and the setup error surfaces
				dst.Close()
				return err
			}
			encErr := stream.writeTo(sw.raw)
			sum, closeErr := sw.Close()
			if encErr != nil {
				return encErr
			}
			if closeErr != nil {
				return closeErr
			}
			si.Size, si.Checksum = sum.Size, sum.Checksum
			return nil
		}()
	})
	for _, err := range ferrs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, i := range fresh {
		st.FreshShards++
		st.FreshBytes += man.Shards[i].Size
		if man.Shards[i].RawFormat == RawFormatPageDelta {
			st.DeltaShards++
			st.DeltaBytes += man.Shards[i].Size
		}
		if man.Shards[i].RawFormat == RawFormatCDC {
			st.CDCShards++
			st.CDCBytes += man.Shards[i].Size
		}
	}
	return man, st, nil
}

// deltaEligible reports whether rank i's changed shard can be stored as a
// page delta against parent entry p: the parent must carry a page table at
// this capture's page size over an identical-length logical stream (page
// diffs are positional), and must itself be a chunked or page-delta shard —
// a legacy gob parent has no compatible layout and forces a clean
// full-shard fallback.
func deltaEligible(p *ShardInfo, sums *ShardSums, i int) bool {
	return p != nil &&
		(p.RawFormat == RawFormatChunked || p.RawFormat == RawFormatPageDelta) &&
		p.PageSize == sums.PageSize && len(p.PageSums) > 0 &&
		p.RawSize == sums.Sizes[i]
}

// dirtyPages returns the sorted dirty page set of a capture against parent
// entry p: every page whose CRC differs from the parent's table, UNIONED
// with the parent's own dirty set when the parent is itself a delta — the
// new delta reconstructs against the chain's base shard, so pages the
// parent already diverged from the base must ride along even when this
// capture did not touch them again.
func dirtyPages(p *ShardInfo, pages []uint32) []int32 {
	dirty := make([]int32, 0, len(p.DeltaPages)+8)
	carried := make(map[int32]bool, len(p.DeltaPages))
	if p.RawFormat == RawFormatPageDelta {
		for _, pg := range p.DeltaPages {
			carried[pg] = true
		}
	}
	for k := range pages {
		if pages[k] != p.PageSums[k] || carried[int32(k)] {
			dirty = append(dirty, int32(k))
		}
	}
	return dirty
}

// ------------------------------------------------------------- load/verify

// LatestEpoch returns the store's newest sealed epoch, or -1 with an error
// when the store is unreadable or holds no sealed epochs. The -1 is
// deliberate: epoch 0 is a valid epoch, so a zero-valued error return would
// alias the chain's first epoch for any caller that drops the error.
func LatestEpoch(store Store) (int, error) {
	epochs, err := store.Epochs()
	if err != nil {
		return -1, err
	}
	if len(epochs) == 0 {
		return -1, fmt.Errorf("ckpt: store holds no sealed epochs")
	}
	return epochs[len(epochs)-1], nil
}

// sealedSet returns the store's sealed epochs, in order and as a set.
func sealedSet(store Store) ([]int, map[int]bool, error) {
	epochs, err := store.Epochs()
	if err != nil {
		return nil, nil, err
	}
	set := make(map[int]bool, len(epochs))
	for _, e := range epochs {
		set[e] = true
	}
	return epochs, set, nil
}

// unsealedDep returns the first epoch an entry's bytes live in that is not
// sealed — its RefEpoch, then each source of a partial entry — or -1 when
// every dependency resolves. The manifest's own epoch is sealed by
// construction (the manifest in hand IS the seal).
func unsealedDep(man *Manifest, si *ShardInfo, sealed map[int]bool) int {
	if si.RefEpoch != man.Epoch && !sealed[si.RefEpoch] {
		return si.RefEpoch
	}
	_, srcs := si.Sources()
	for _, s := range srcs {
		if s.Epoch != man.Epoch && !sealed[s.Epoch] {
			return s.Epoch
		}
	}
	return -1
}

// checkRefsSealed validates that every cross-epoch dependency of the given
// entries of man resolves to a SEALED epoch. A reference into an unsealed
// epoch directory (an aborted commit, a chain whose parent manifest was
// lost, a reclaimed source) must fail with a diagnostic naming it — its
// shard files may physically exist, and silently restoring from an aborted
// commit is exactly the corruption the manifest-sealed-last contract exists
// to prevent. One wording serves every chain-resolution entry point.
func checkRefsSealed(store Store, man *Manifest, shards []ShardInfo) error {
	selfContained := true
	for i := range shards {
		if shards[i].RefEpoch != man.Epoch || shards[i].Partial() {
			selfContained = false
			break
		}
	}
	if selfContained {
		return nil
	}
	_, sealed, err := sealedSet(store)
	if err != nil {
		return err
	}
	for i := range shards {
		if e := unsealedDep(man, &shards[i], sealed); e >= 0 {
			return fmt.Errorf("ckpt: epoch %d rank %d references epoch %d, which is not sealed in the store (aborted commit, lost parent manifest or reclaimed source)",
				man.Epoch, shards[i].Rank, e)
		}
	}
	return nil
}

// LoadJobImage materializes one epoch's job image from a store, resolving
// shard references through the chain (each shard streamed and verified on
// the way in — the compressed blob is never materialized) and verifying
// every shard's checksum. Failures name the epoch and rank (and the
// referenced epoch physically holding the bytes) so a damaged chain is
// attributable.
func LoadJobImage(store Store, epoch int) (*JobImage, error) {
	man, err := store.GetManifest(epoch)
	if err != nil {
		return nil, err
	}
	if err := checkRefsSealed(store, man, man.Shards); err != nil {
		return nil, err
	}
	ji := &JobImage{
		Algorithm:          man.Algorithm,
		Ranks:              man.Ranks,
		PPN:                man.PPN,
		CaptureVT:          man.CaptureVT,
		PaddedBytesPerRank: man.PaddedBytesPerRank,
		Images:             make([]RankImage, len(man.Shards)),
	}
	errs := make([]error, len(man.Shards))
	fanOut(len(man.Shards), encodeWorkers(len(man.Shards)), func(i int) {
		si := &man.Shards[i]
		ri, err := loadShard(store, man, si)
		if err != nil {
			errs[i] = err
			return
		}
		ji.Images[i] = *ri
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ji, nil
}

// loadShard streams, verifies, and decodes one shard through the entry
// reader: the stored bytes are checksummed as they are read and the logical
// stream feeds the gob decoder directly, so nothing shard-sized is buffered
// on the way.
func loadShard(store Store, man *Manifest, si *ShardInfo) (*RankImage, error) {
	r, err := openEntry(store, si)
	if err != nil {
		return nil, entryError(man, si, err)
	}
	defer r.close()
	// The bufio layer reads ahead of the header's gob decoder but stays on
	// this side of the logical counter, so the drained count is exact.
	br := getBufReader(r.logical)
	ri, decErr := readShardRaw(br, si.RawSize)
	putBufReader(br)
	if decErr == nil {
		if _, err := io.Copy(io.Discard, r.logical); err != nil {
			decErr = fmt.Errorf("reading stream: %w", err)
		}
	}
	if err := r.finish(decErr); err != nil {
		return nil, entryError(man, si, err)
	}
	if ri.Rank != si.Rank {
		return nil, entryError(man, si, fmt.Errorf("shard content is for rank %d", ri.Rank))
	}
	// Shards are encoded clockless; the capture-time clock rides in the
	// manifest.
	ri.ClockVT = si.ClockVT
	return ri, nil
}

// entryError attributes a failed read of one manifest entry to its epoch and
// rank, and to the epoch physically holding its object when that is another.
// The name is built only on failure: entries are read once a shard on every
// restart.
func entryError(man *Manifest, si *ShardInfo, err error) error {
	at := fmt.Sprintf("epoch %d rank %d", man.Epoch, si.Rank)
	if si.RefEpoch != man.Epoch {
		at += fmt.Sprintf(" (shard stored in epoch %d)", si.RefEpoch)
	}
	return fmt.Errorf("ckpt: %s: %w", at, err)
}

// ExtractRankFromStore decodes a single rank's image from one store epoch:
// only that rank's manifest entry is resolved (through the reference chain)
// and only its shard is fetched and decompressed — the cheap single-rank
// fetch the per-rank store layout exists for.
func ExtractRankFromStore(store Store, epoch, rank int) (*RankImage, error) {
	man, si, err := rankEntry(store, epoch, rank)
	if err != nil {
		return nil, err
	}
	return loadShard(store, man, si)
}

// ExtractRawFromStore returns one rank's logical stream from one store
// epoch, the format-1 bytes (FORMAT.md, "Raw stream layouts") whose XXH64 is
// the manifest's RawSum. A decoded RankImage would not re-encode to them:
// its header is gob, whose type numbering is per process.
func ExtractRawFromStore(store Store, epoch, rank int) ([]byte, error) {
	man, si, err := rankEntry(store, epoch, rank)
	if err != nil {
		return nil, err
	}
	r, err := openEntry(store, si)
	if err != nil {
		return nil, entryError(man, si, err)
	}
	defer r.close()
	// Reading stops one byte past RawSize: a lying size cannot grow the
	// buffer further.
	var raw bytes.Buffer
	_, err = raw.ReadFrom(io.LimitReader(r.logical, si.RawSize+1))
	if err := r.finish(err); err != nil {
		return nil, entryError(man, si, err)
	}
	return raw.Bytes(), nil
}

// rankEntry resolves one rank's entry in a sealed epoch's manifest (shard i
// is rank i: validate holds it), with every epoch it reads from sealed.
func rankEntry(store Store, epoch, rank int) (*Manifest, *ShardInfo, error) {
	man, err := store.GetManifest(epoch)
	if err != nil {
		return nil, nil, err
	}
	if rank < 0 || rank >= len(man.Shards) {
		return nil, nil, fmt.Errorf("ckpt: epoch %d has no rank %d", epoch, rank)
	}
	return man, &man.Shards[rank], checkRefsSealed(store, man, man.Shards[rank:rank+1])
}

// WriteBytesOf is the write charge of one epoch: the bytes its seal is priced
// on, from its manifest alone. Only the objects the epoch itself holds travel
// to storage — a reference is free, which is the incremental win. With a
// padded image size every full shard charges PaddedBytesPerRank and a partial
// object the share of it its own extents cover (never padded back up to a
// whole shard, never below one byte); otherwise each object charges its
// stored size. ReadSetOf prices the same objects by the same expression, so
// a restart is charged against exactly what the chain was charged to write.
func WriteBytesOf(man *Manifest) int64 {
	pad := man.PaddedBytesPerRank
	var bytes int64
	for i := range man.Shards {
		si := &man.Shards[i]
		if si.RefEpoch != man.Epoch {
			continue
		}
		if pad > 0 {
			own, _ := si.Sources()
			bytes += max(1, si.paddedShare(pad, own))
		} else {
			bytes += si.Size
		}
	}
	return bytes
}

// ReadSetOf computes the restart read fan-in of one epoch: the manifest's
// resolved shard set grouped by the epoch physically holding the bytes, in
// the shape netmodel.RestartReadCost prices. The first entry is always the
// restart epoch itself — one sequential scan, even when every shard is a
// reference and it holds no bytes at all — and older referenced epochs
// follow newest-first, each a random fan-in paying per-shard seeks.
//
// Bytes follow the same basis as the write side: with a padded image size
// every shard charges PaddedBytesPerRank, otherwise its compressed size, so
// a restart is priced against exactly what the chain was charged to write.
func ReadSetOf(man *Manifest) []netmodel.EpochRead {
	byEpoch := make(map[int]*netmodel.EpochRead)
	charge := func(epoch int, bytes int64) {
		r := byEpoch[epoch]
		if r == nil {
			r = &netmodel.EpochRead{Epoch: epoch}
			byEpoch[epoch] = r
		}
		r.Shards++
		r.Bytes += bytes
	}
	pad := man.PaddedBytesPerRank
	for i := range man.Shards {
		si := &man.Shards[i]
		own, srcs := si.Sources()
		// The entry's own object: a partial one holds only `own` of the
		// logical bytes, and padding it back up to a whole shard would erase
		// exactly the read-cost win it exists for.
		if pad > 0 {
			charge(si.RefEpoch, si.paddedShare(pad, own))
		} else {
			charge(si.RefEpoch, si.Size)
		}
		// Restart also reads every source object the rest is drawn from — a
		// further fan-in each, priced on its own epoch: a source whose stored
		// size the entry records is charged as that whole object, any other
		// by the bytes drawn from it.
		for _, s := range srcs {
			switch {
			case s.Size > 0 && pad > 0:
				charge(s.Epoch, pad)
			case s.Size > 0:
				charge(s.Epoch, s.Size)
			case pad > 0:
				charge(s.Epoch, si.paddedShare(pad, s.Bytes))
			default:
				charge(s.Epoch, s.Bytes)
			}
		}
	}
	if byEpoch[man.Epoch] == nil {
		byEpoch[man.Epoch] = &netmodel.EpochRead{Epoch: man.Epoch}
	}
	reads := make([]netmodel.EpochRead, 0, len(byEpoch))
	reads = append(reads, *byEpoch[man.Epoch])
	delete(byEpoch, man.Epoch)
	rest := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		rest = append(rest, e)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rest)))
	for _, e := range rest {
		reads = append(reads, *byEpoch[e])
	}
	return reads
}

// StoreFault names one damaged or unresolvable shard in a store chain.
type StoreFault struct {
	Epoch    int // epoch whose manifest references the shard
	Rank     int
	RefEpoch int // epoch that physically holds (or should hold) the bytes
	Err      error
}

// VerifyStore walks every sealed epoch of a store, verifying that each
// manifest decodes, every shard reference resolves, and every shard's
// checksum and trial decode pass. Faults are attributed per (epoch, rank);
// a structural failure (unreadable epoch list) is returned as err.
//
// A physical shard referenced by many epochs — the norm on the low-churn
// chains incremental checkpointing targets — is fetched and decoded once:
// later epochs whose manifest entry carries the identical (ref-epoch, rank,
// checksum, stored size, raw size) tuple reuse the verdict instead of
// re-reading it, so an entry that lies about any of them is read again.
func VerifyStore(store Store) ([]StoreFault, error) {
	epochs, sealed, err := sealedSet(store)
	if err != nil {
		return nil, err
	}
	type shardID struct {
		epoch, rank int
		sum         uint64
		size        int64
		rawSize     int64
	}
	verified := make(map[shardID]bool)
	var faults []StoreFault
	for _, e := range epochs {
		man, err := store.GetManifest(e)
		if err != nil {
			faults = append(faults, StoreFault{Epoch: e, Rank: -1, RefEpoch: e, Err: err})
			continue
		}
		todo := make([]int, 0, len(man.Shards))
		for i := range man.Shards {
			si := &man.Shards[i]
			if bad := unsealedDep(man, si, sealed); bad >= 0 {
				// The referenced epoch is gone or never sealed: its shard
				// file may even exist (an aborted commit), but nothing
				// vouches for it — attribute rather than trial-decode.
				faults = append(faults, StoreFault{
					Epoch: e, Rank: si.Rank, RefEpoch: bad,
					Err: fmt.Errorf("references epoch %d, which is not sealed in the store", bad),
				})
				continue
			}
			if !verified[shardID{si.RefEpoch, si.Rank, si.Checksum, si.Size, si.RawSize}] {
				todo = append(todo, i)
			}
		}
		errs := make([]error, len(todo))
		fanOut(len(todo), encodeWorkers(len(todo)), func(j int) {
			_, errs[j] = loadShard(store, man, &man.Shards[todo[j]])
		})
		for j, err := range errs {
			si := &man.Shards[todo[j]]
			if err != nil {
				faults = append(faults, StoreFault{
					Epoch: e, Rank: si.Rank, RefEpoch: si.RefEpoch, Err: err,
				})
				continue
			}
			verified[shardID{si.RefEpoch, si.Rank, si.Checksum, si.Size, si.RawSize}] = true
		}
	}
	return faults, nil
}
