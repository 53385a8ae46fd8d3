package ckpt

// Chain lifecycle management: epoch garbage collection and chain
// compaction.
//
// Incremental v3 chains grow without bound — every sealed epoch lives
// forever, restart read fan-in grows with chain depth, and aborted captures
// leave dead bytes behind. A job checkpointing every few minutes for days
// is only viable with a retention policy:
//
//   - GCStore deletes every sealed epoch that no retained manifest reaches
//     (liveness traced transitively through ShardInfo.RefEpoch and the
//     sources of partial shards), plus any unsealed-epoch debris left by
//     aborted commits.
//   - CompactChain rewrites a deep chain's newest epoch into a fresh
//     self-contained epoch by streaming verified copies of every resolved
//     shard, restoring the depth-1 restart read cost and making every
//     older epoch GC-able.
//
// The two compose: compact first (the new epoch references nothing), then
// GC with keep=1 reclaims the entire old chain.

import (
	"fmt"
	"io"
	"sort"
)

// GCStats reports what one GCStore pass did.
type GCStats struct {
	// LiveEpochs is the retained set: the newest `keep` sealed epochs plus
	// every older epoch transitively referenced by a live manifest.
	LiveEpochs []int
	// DeletedEpochs and DeletedShards count the dead sealed epochs removed
	// and the fresh shard objects they physically held.
	DeletedEpochs int
	DeletedShards int
	// SweptObjects counts unsealed-debris files (aborted-commit leftovers)
	// removed alongside the dead epochs.
	SweptObjects int
	// ReclaimedBytes is the total stored bytes freed (shards, manifests,
	// and debris).
	ReclaimedBytes int64
}

// GCStore reclaims every dead epoch of a store, keeping the newest `keep`
// sealed epochs and everything they transitively reference.
//
// Liveness: an epoch is live if it is one of the `keep` newest sealed
// epochs, or if any live epoch's manifest references it through a shard's
// RefEpoch or a partial shard's Sources. The closure is transitive so that
// every sealed epoch left behind still passes VerifyStore — a live epoch's
// own manifest must keep resolving even when the restart set of the
// retained heads never touches it. A live epoch keeps all of its objects
// (its own manifest references every fresh shard it holds), so reclamation
// is whole-epoch: dead epochs are deleted newest-first via DeleteEpoch,
// which unseals (removes the manifest of) each epoch before its shards — a
// crash mid-GC leaves unsealed debris for the next pass, never a sealed
// manifest with missing bytes. Newest-first matters too: manifests only
// reference older epochs, so no surviving sealed manifest ever dangles
// mid-pass.
//
// Unsealed debris strictly older than the newest sealed epoch is swept in
// the same pass (an in-flight commit is always numbered above the newest
// seal, so the sweep cannot race it).
func GCStore(store Store, keep int) (*GCStats, error) {
	if keep < 1 {
		return nil, fmt.Errorf("ckpt: gc must keep at least one epoch (keep=%d)", keep)
	}
	epochs, err := store.Epochs()
	if err != nil {
		return nil, err
	}
	st := &GCStats{}
	if len(epochs) == 0 {
		return st, nil
	}

	sealed := make(map[int]bool, len(epochs))
	for _, e := range epochs {
		sealed[e] = true
	}
	live := make(map[int]bool)
	queue := make([]int, 0, keep)
	retained := epochs
	if len(retained) > keep {
		retained = retained[len(retained)-keep:]
	}
	mark := func(e int) {
		if !live[e] {
			live[e] = true
			queue = append(queue, e)
		}
	}
	for _, e := range retained {
		mark(e)
	}
	for len(queue) > 0 {
		e := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !sealed[e] {
			// A dangling reference (already-broken chain): nothing sealed
			// to trace through or delete — VerifyStore attributes it.
			continue
		}
		man, err := store.GetManifest(e)
		if err != nil {
			return nil, fmt.Errorf("ckpt: gc tracing liveness: %w", err)
		}
		// An entry keeps alive the epoch holding its object and, when that
		// object is partial, every epoch its sources live in: it is
		// unreadable without them.
		for i := range man.Shards {
			mark(man.Shards[i].RefEpoch)
			_, srcs := man.Shards[i].Sources()
			for _, s := range srcs {
				mark(s.Epoch)
			}
		}
	}
	for _, e := range epochs {
		if live[e] {
			st.LiveEpochs = append(st.LiveEpochs, e)
		}
	}
	sort.Ints(st.LiveEpochs)

	// Dead epochs, newest first (see above). Their manifests are read
	// BEFORE any deletion so the object count is known even though the
	// manifest is the first thing DeleteEpoch removes.
	for i := len(epochs) - 1; i >= 0; i-- {
		e := epochs[i]
		if live[e] {
			continue
		}
		fresh := 0
		if man, err := store.GetManifest(e); err == nil {
			for j := range man.Shards {
				if man.Shards[j].RefEpoch == e {
					fresh++
				}
			}
		}
		n, err := store.DeleteEpoch(e)
		st.ReclaimedBytes += n
		if err != nil {
			return st, fmt.Errorf("ckpt: gc deleting epoch %d: %w", e, err)
		}
		st.DeletedEpochs++
		st.DeletedShards += fresh
	}

	if sw, ok := store.(Sweeper); ok {
		bytes, swept, err := sw.SweepUnsealed(epochs[len(epochs)-1])
		st.ReclaimedBytes += bytes
		st.SweptObjects += swept
		if err != nil {
			return st, fmt.Errorf("ckpt: gc sweeping unsealed debris: %w", err)
		}
	}
	return st, nil
}

// CompactChain rewrites one sealed epoch's resolved shard set into a fresh
// self-contained epoch: every shard the manifest references — wherever in
// the chain its bytes physically live — is streamed into the new epoch as
// a verified byte-identical copy, and the new manifest carries no
// cross-epoch references (Parent -1, every RefEpoch its own). Restart from
// the compacted epoch therefore reads at depth 1, and a following
// GCStore(store, 1) can reclaim the entire old chain.
//
// The copy is verbatim at the stored-blob level (size and checksum are
// checked against the manifest before the new epoch seals), so the restart
// image — and its digest — is bit-identical to restarting from the source
// epoch. Raw identities (RawSum/RawSize) are carried over unchanged, which
// keeps incremental reuse working when the coordinator re-roots a running
// chain onto the compacted epoch.
//
// budget bounds the copy fan-out's in-flight memory exactly as it bounds
// the commit stage's (nil selects the default capacity). An epoch that is
// already self-contained is returned unchanged with nil stats (no-op).
// On any copy or verification failure nothing is sealed and the partial
// new epoch is removed.
func CompactChain(store Store, epoch int, budget *StreamBudget) (*Manifest, *CommitStats, error) {
	man, st, err := compactChain(store, epoch, budget)
	if err != nil || st == nil {
		return man, st, err
	}
	if err := store.PutManifest(man.Epoch, man); err != nil {
		return nil, nil, err
	}
	return man, st, nil
}

// compactChain is CompactChain up to the seal: the new epoch's objects are
// written and its manifest returned finished but UNSEALED, for the caller to
// PutManifest.
func compactChain(store Store, epoch int, budget *StreamBudget) (*Manifest, *CommitStats, error) {
	man, err := store.GetManifest(epoch)
	if err != nil {
		return nil, nil, err
	}
	if err := checkRefsSealed(store, man, man.Shards); err != nil {
		return nil, nil, err
	}
	selfContained := true
	for i := range man.Shards {
		// A partial shard is never self-contained even when its object lives
		// in this epoch: it reconstructs through its sources.
		if man.Shards[i].RefEpoch != man.Epoch || man.Shards[i].Partial() {
			selfContained = false
			break
		}
	}
	if selfContained {
		return man, nil, nil
	}
	latest, err := LatestEpoch(store)
	if err != nil {
		return nil, nil, err
	}
	newEpoch := latest + 1
	if budget == nil {
		budget = NewStreamBudget(0)
	}

	newMan := &Manifest{
		Algorithm:          man.Algorithm,
		Ranks:              man.Ranks,
		PPN:                man.PPN,
		CaptureVT:          man.CaptureVT,
		PaddedBytesPerRank: man.PaddedBytesPerRank,
		Shards:             make([]ShardInfo, len(man.Shards)),
		Version:            man.Version,
		Epoch:              newEpoch,
		Parent:             -1,
	}
	st := &CommitStats{Epoch: newEpoch}
	errs := make([]error, len(man.Shards))
	fanOut(len(man.Shards), encodeWorkers(len(man.Shards)), func(i int) {
		errs[i] = func() error {
			si := man.Shards[i]
			budget.Acquire(shardStreamFootprint)
			defer budget.Release(shardStreamFootprint)
			if si.Partial() {
				// A partial shard cannot be copied verbatim — the copy would
				// still dangle off its sources. Flatten it: stream the
				// verified extent merge back through a shard compressor into
				// a self-contained full shard. The logical identity (RawSum/
				// RawSize, page and chunk tables) is unchanged; only the
				// stored object is new.
				if err := flattenPartialShard(store, newEpoch, &si); err != nil {
					return fmt.Errorf("ckpt: compacting epoch %d rank %d (partial shard stored in epoch %d): %w",
						epoch, si.Rank, si.RefEpoch, err)
				}
			} else {
				src, err := store.OpenShard(si.RefEpoch, si.Rank)
				if err != nil {
					return err
				}
				defer src.Close()
				dst, err := store.PutShardStream(newEpoch, si.Rank)
				if err != nil {
					return err
				}
				if err := copyShardVerified(dst, src, si.Size, si.Checksum); err != nil {
					//lint:allow closecheck copy already failed; dst is abandoned and the copy error surfaces
					dst.Close()
					return fmt.Errorf("ckpt: compacting epoch %d rank %d (shard stored in epoch %d): %w",
						epoch, si.Rank, si.RefEpoch, err)
				}
				if err := dst.Close(); err != nil {
					return err
				}
			}
			si.RefEpoch = newEpoch
			// Every compacted shard is a self-contained full chunked stream
			// in newEpoch, so its chunk table (if any) must self-source from
			// the new object. The remap also clones the slice: si.Chunks
			// shares its backing array with the source manifest's entry.
			remapSelfChunks(&si, newEpoch)
			newMan.Shards[i] = si
			return nil
		}()
	})
	for _, err := range errs {
		if err != nil {
			// Nothing sealed: remove the partial epoch's debris, best-effort
			// (the copy error is the one to surface).
			store.DeleteEpoch(newEpoch)
			return nil, nil, err
		}
	}
	for i := range newMan.Shards {
		st.FreshShards++
		st.FreshBytes += newMan.Shards[i].Size
	}
	return newMan, st, nil
}

// flattenPartialShard rewrites one partial shard as a self-contained
// chunked shard in newEpoch: its own object and every source stream
// through the extent merge (every extent CRC-checked, every object
// checksum-verified) and the merged logical stream recompresses directly
// into the new object — nothing shard-sized is ever held. The new object is
// re-encoded with the codec that produced the partial one, so the entry's
// persisted CodecID keeps describing the stored bytes. On success si is
// mutated in place into the full shard's entry: RawFormatChunked, new
// Size/Checksum, page table re-derived from the flattened stream, source
// linkage and stored-stream identity cleared. A chunk table keeps its
// content hashes; CompactChain remaps it to self-source from the new object.
func flattenPartialShard(store Store, newEpoch int, si *ShardInfo) error {
	codec, err := codecByID(si.CodecID)
	if err != nil {
		return err
	}
	m, err := openPartialMerge(store, si)
	if err != nil {
		return err
	}
	defer m.close()
	dst, err := store.PutShardStream(newEpoch, si.Rank)
	if err != nil {
		return err
	}
	sw, err := NewShardWriterCodec(si.Rank, dst, codec, si.PageSize, false)
	if err != nil {
		//lint:allow closecheck shard-writer setup failed; dst is abandoned and the setup error surfaces
		dst.Close()
		return err
	}
	// The merged stream IS the chunked raw stream; feed it straight into the
	// writer's raw side (the page summer re-derives the table as it flows).
	_, copyErr := io.Copy(sw.raw, m.merged)
	sum, closeErr := sw.Close()
	// The writer only counts raw bytes; the merge reader hashed exactly the
	// bytes it handed the writer, so its XXH64 IS the new object's raw
	// identity — a reading of the flattened stream itself, not an echo of
	// the manifest. Reported through finish so a corrupt source object still
	// wins the verdict.
	if got := m.merged.h.sum64(); copyErr == nil && (got != si.RawSum || sum.RawSize != si.RawSize) {
		copyErr = fmt.Errorf("flattened shard does not match its manifest identity (got %d raw bytes sum %#x, want %d sum %#x)",
			sum.RawSize, got, si.RawSize, si.RawSum)
	}
	if err := m.finish(copyErr); err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	si.RawFormat = RawFormatChunked
	si.Size, si.Checksum = sum.Size, sum.Checksum
	si.PageSums = sum.PageSums
	si.BaseEpoch, si.BaseSize, si.DeltaPages = 0, 0, nil
	si.DeltaRawSize, si.DeltaRawSum = 0, 0
	return nil
}

// remapSelfChunks rewrites a compacted entry's chunk table so every chunk
// self-sources from the new physical object: after compaction the shard is
// a full chunked stream in newEpoch, so each chunk lives at its cumulative
// logical offset. Content hashes are untouched — reuse keys survive the
// move. The table is rebuilt into a fresh slice because si.Chunks shares
// its backing array with the manifest it was copied from. No-op when the
// entry carries no table (pre-CDC shards).
func remapSelfChunks(si *ShardInfo, newEpoch int) {
	if len(si.Chunks) == 0 {
		return
	}
	refs := make([]ChunkRef, len(si.Chunks))
	var off int64
	for k := range si.Chunks {
		c := si.Chunks[k]
		refs[k] = ChunkRef{Len: c.Len, CRC: c.CRC, Sum: c.Sum, SrcEpoch: newEpoch, SrcRank: si.Rank, SrcOff: off}
		off += c.Len
	}
	si.Chunks = refs
}
