package netmodel

// Checkpoint storage model: a two-tier hierarchy (burst buffer over a
// Lustre-like parallel filesystem), write cost splitting for overlapped
// (forked) checkpoints, and restart read costs that follow the resolved
// shard set of an incremental epoch chain.

// StorageTier selects one level of the checkpoint storage hierarchy.
type StorageTier int

// Storage tiers, fastest-to-restart last.
const (
	// TierPFS is the shared parallel filesystem (Lustre-like): high fixed
	// metadata latency, per-node bandwidth capped by a job-wide aggregate,
	// and open contention modeled as per-node write staggering.
	TierPFS StorageTier = iota
	// TierBurstBuffer is the fast staging tier (node-local NVMe or a
	// dedicated burst-buffer appliance): low open latency, bandwidth that
	// scales with writer nodes, no shared metadata server to stagger on.
	// Epochs committed here are drained to the PFS in the background (see
	// ckpt.CheckpointStats.TierDrainVT); the drain is a TierPFS write.
	TierBurstBuffer
)

func (t StorageTier) String() string {
	switch t {
	case TierPFS:
		return "pfs"
	case TierBurstBuffer:
		return "burst"
	}
	return "unknown"
}

// TierSpec is one tier's resolved cost constants (see Model.Tier).
type TierSpec struct {
	OpenLatency float64 // fixed open/metadata cost per storage operation (s)
	NodeBW      float64 // per-writer-node achievable bandwidth (B/s)
	AggBW       float64 // tier-wide aggregate bandwidth cap (B/s; 0 = uncapped)
	Seek        float64 // per-object positioning cost on random reads (s)
	Stagger     float64 // per-additional-node open stagger under contention (s)
}

// HasBurstTier reports whether the parameters describe a real burst tier.
// Both bandwidths zero means the system has only the parallel filesystem:
// TierBurstBuffer resolves to the PFS constants and there is no staging
// (nothing to drain).
func (m *Model) HasBurstTier() bool {
	return m.P.BurstNodeBW > 0 || m.P.BurstAggBW > 0
}

// EffectiveTier normalizes a requested tier against the configured
// hierarchy: asking for the burst tier on a one-tier system is a PFS
// write. Cost accounting that branches on the tier (drain charging,
// manifest stamping) must branch on the effective tier, or an absent burst
// tier would fabricate staging traffic.
func (m *Model) EffectiveTier(t StorageTier) StorageTier {
	if t == TierBurstBuffer && !m.HasBurstTier() {
		return TierPFS
	}
	return t
}

// Tier resolves a tier's cost constants from the model parameters. A burst
// tier with both bandwidth parameters zero is treated as absent (a one-tier
// system) and resolves to the PFS constants, so hand-built Params that only
// fill the classic Storage* fields keep working with tier-aware callers.
func (m *Model) Tier(t StorageTier) TierSpec {
	if t == TierBurstBuffer && m.HasBurstTier() {
		return TierSpec{
			OpenLatency: m.P.BurstLatency,
			NodeBW:      m.P.BurstNodeBW,
			AggBW:       m.P.BurstAggBW,
			Seek:        m.P.BurstSeek,
			Stagger:     m.P.BurstStagger,
		}
	}
	return TierSpec{
		OpenLatency: m.P.StorageLatency,
		NodeBW:      m.P.StorageNodeBW,
		AggBW:       m.P.StorageAggBW,
		Seek:        m.P.StorageSeek,
		Stagger:     m.P.StorageStagger,
	}
}

// bw returns the effective streaming bandwidth for the given writer-node
// count: nodes fan out at NodeBW each until the tier's aggregate cap. A tier
// with NodeBW zero is aggregate-only (every node shares AggBW); a tier with
// both zero has no bandwidth at all and transfers take forever (+Inf), which
// callers surface rather than divide-by-zero panic.
func (sp TierSpec) bw(nodes int) float64 {
	if nodes <= 0 {
		nodes = 1
	}
	bw := float64(nodes) * sp.NodeBW
	if sp.AggBW > 0 && (bw > sp.AggBW || bw == 0) {
		bw = sp.AggBW
	}
	return bw
}

// transfer returns bytes/bw with the zero-bandwidth and zero-byte corners
// pinned: zero bytes cost nothing on any tier, and positive bytes on a
// zero-bandwidth tier cost +Inf (never NaN).
func (sp TierSpec) transfer(bytes int64, nodes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / sp.bw(nodes)
}

// TierWriteTime models writing a checkpoint epoch to one storage tier:
// every writer node pays the tier's open latency, opens are staggered under
// metadata contention (Stagger per additional node), and the payload
// streams at the node-fanned bandwidth capped by the tier aggregate.
// totalBytes is the sum of all image/shard sizes and nodes the number of
// writer nodes (values below one are treated as a single writer).
func (m *Model) TierWriteTime(t StorageTier, totalBytes int64, nodes int) float64 {
	sp := m.Tier(t)
	if nodes <= 0 {
		nodes = 1
	}
	return sp.OpenLatency + float64(nodes-1)*sp.Stagger + sp.transfer(totalBytes, nodes)
}

// WriteCost splits one checkpoint write into the virtual time the job stalls
// for and the virtual time hidden behind resumed execution. The two always
// sum to the full modeled write time (Total).
type WriteCost struct {
	Total   float64 // full modeled write time (latency + stagger + transfer)
	Stall   float64 // charged to every rank's clock before release
	Overlap float64 // streamed concurrently with the resumed job
}

// TierWriteCost models a checkpoint write to one tier in one of two regimes:
//
//   - stalled (overlapped=false): the classic stop-and-write — the job waits
//     for the entire write, so Stall is the full TierWriteTime.
//   - overlapped (overlapped=true): forked checkpointing — the job resumes as
//     soon as the snapshot is taken and only the synchronous open/metadata
//     latency stalls it; the data transfer streams behind execution (MANA and
//     DMTCP's forked checkpoint, where a child process writes the image).
//     A fast tier's smaller open latency shrinks this residual stall too.
//
// totalBytes is the aggregate image size and nodes the number of writer
// nodes, exactly as for TierWriteTime.
func (m *Model) TierWriteCost(t StorageTier, totalBytes int64, nodes int, overlapped bool) WriteCost {
	total := m.TierWriteTime(t, totalBytes, nodes)
	if !overlapped {
		return WriteCost{Total: total, Stall: total}
	}
	stall := m.Tier(t).OpenLatency
	if stall > total {
		stall = total
	}
	return WriteCost{Total: total, Stall: stall, Overlap: total - stall}
}

// TierDeleteTime models reclaiming `objects` checkpoint objects (shards and
// manifests) from one storage tier: a single open/metadata round plus one
// per-object remove, priced at the tier's Seek (deletes are directory-entry
// operations on the metadata server — the stored bytes never travel, so the
// cost is independent of object size). Zero objects cost nothing.
func (m *Model) TierDeleteTime(t StorageTier, objects int) float64 {
	if objects <= 0 {
		return 0
	}
	sp := m.Tier(t)
	return sp.OpenLatency + float64(objects)*sp.Seek
}

// EpochRead is one epoch's contribution to a restart's resolved read set:
// how many shard objects the restarting job must fetch from that epoch and
// how many bytes they hold. ckpt.ReadSetOf derives the set from a manifest.
type EpochRead struct {
	Epoch  int
	Shards int
	Bytes  int64
}

// RestartReadCost models restarting from an incremental epoch chain: the
// read set is the resolved shard set, grouped by the epoch physically
// holding the bytes (reads[0] is the restart epoch itself; later entries
// are the older epochs its manifest references).
//
// The restart epoch is one sequential scan — a single open, then all bytes
// streaming at the tier bandwidth (fanned over the reader nodes, capped at
// the aggregate). Every OLDER epoch in the set is random fan-in: it pays
// the tier open latency again plus a per-shard Seek, so deeper chains read
// slower even when total bytes are unchanged — the price incremental
// checkpointing pays at restart time. A depth-1 read (everything fresh in
// the restart epoch) therefore costs exactly the classic RestartReadTime.
// The fixed lower-half re-initialization cost (RestartFixed) is included.
func (m *Model) RestartReadCost(t StorageTier, reads []EpochRead, nodes int) float64 {
	sp := m.Tier(t)
	var bytes int64
	for _, r := range reads {
		bytes += r.Bytes
	}
	cost := m.P.RestartFixed + sp.OpenLatency + sp.transfer(bytes, nodes)
	if len(reads) > 1 {
		for _, r := range reads[1:] {
			cost += sp.OpenLatency + float64(r.Shards)*sp.Seek
		}
	}
	return cost
}

// RestartReadTime models restart from a self-contained (depth-1) image on
// the parallel filesystem: reading all images back in one sequential scan
// plus the fixed cost of launching a fresh lower half (MPI
// re-initialization). Reads are not staggered — write staggering is an
// open-contention device for simultaneous writers.
func (m *Model) RestartReadTime(totalBytes int64, nodes int) float64 {
	return m.RestartReadCost(TierPFS, []EpochRead{{Shards: nodes, Bytes: totalBytes}}, nodes)
}
