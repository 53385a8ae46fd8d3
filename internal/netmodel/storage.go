package netmodel

// Checkpoint storage model: a Lustre-like parallel filesystem with high
// fixed metadata latency, per-node bandwidth capped by a job-wide aggregate,
// and open contention modeled as per-node write staggering; write cost
// splitting for overlapped (forked) checkpoints; and restart read costs that
// follow the resolved shard set of an incremental epoch chain.

// StorageTier names where a checkpoint epoch was written. The parallel
// filesystem is the only storage this model prices, so TierPFS is its only
// value. The type exists only for the on-disk record (ckpt.Manifest.Tier)
// and for bench/'s call sites (layers.go:274, trace.go:87), which convert
// that field into RestartReadCost's first argument. The [benchmark] change
// of ROADMAP item 7(a) drops that argument, and this type with it.
type StorageTier int

// TierPFS is the shared parallel filesystem, the one storage tier.
const TierPFS StorageTier = 0

// bw returns the effective streaming bandwidth for the given writer-node
// count: nodes fan out at StorageNodeBW each until the StorageAggBW cap. A
// filesystem with StorageNodeBW zero is aggregate-only (every node shares
// the aggregate); with both zero it has no bandwidth at all and transfers
// take forever (+Inf), which callers surface rather than divide-by-zero
// panic.
func (m *Model) bw(nodes int) float64 {
	if nodes <= 0 {
		nodes = 1
	}
	bw := float64(nodes) * m.P.StorageNodeBW
	if agg := m.P.StorageAggBW; agg > 0 && (bw > agg || bw == 0) {
		bw = agg
	}
	return bw
}

// transfer returns bytes/bw with the zero-bandwidth and zero-byte corners
// pinned: zero bytes cost nothing, and positive bytes at zero bandwidth cost
// +Inf (never NaN).
func (m *Model) transfer(bytes int64, nodes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.bw(nodes)
}

// WriteTime models writing a checkpoint epoch to the parallel filesystem:
// every writer node pays the open latency, opens are staggered under
// metadata contention (StorageStagger per additional node), and the payload
// streams at the node-fanned bandwidth capped by the aggregate. totalBytes
// is the sum of all image/shard sizes and nodes the number of writer nodes
// (values below one are treated as a single writer).
func (m *Model) WriteTime(totalBytes int64, nodes int) float64 {
	if nodes <= 0 {
		nodes = 1
	}
	return m.P.StorageLatency + float64(nodes-1)*m.P.StorageStagger + m.transfer(totalBytes, nodes)
}

// WriteCost splits one checkpoint write into the virtual time the job stalls
// for and the virtual time hidden behind resumed execution. The two always
// sum to the full modeled write time (Total).
type WriteCost struct {
	Total   float64 // full modeled write time (latency + stagger + transfer)
	Stall   float64 // charged to every rank's clock before release
	Overlap float64 // streamed concurrently with the resumed job
}

// WriteCost models a checkpoint write in one of two regimes:
//
//   - stalled (overlapped=false): the classic stop-and-write — the job waits
//     for the entire write, so Stall is the full WriteTime.
//   - overlapped (overlapped=true): forked checkpointing — the job resumes as
//     soon as the snapshot is taken and only the synchronous open/metadata
//     latency stalls it; the data transfer streams behind execution (MANA and
//     DMTCP's forked checkpoint, where a child process writes the image).
//
// totalBytes is the aggregate image size and nodes the number of writer
// nodes, exactly as for WriteTime.
func (m *Model) WriteCost(totalBytes int64, nodes int, overlapped bool) WriteCost {
	total := m.WriteTime(totalBytes, nodes)
	if !overlapped {
		return WriteCost{Total: total, Stall: total}
	}
	stall := m.P.StorageLatency
	if stall > total {
		stall = total
	}
	return WriteCost{Total: total, Stall: stall, Overlap: total - stall}
}

// DeleteTime models reclaiming `objects` checkpoint objects (shards and
// manifests): a single open/metadata round plus one per-object remove,
// priced at StorageSeek (deletes are directory-entry operations on the
// metadata server — the stored bytes never travel, so the cost is
// independent of object size). Zero objects cost nothing.
func (m *Model) DeleteTime(objects int) float64 {
	if objects <= 0 {
		return 0
	}
	return m.P.StorageLatency + float64(objects)*m.P.StorageSeek
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
// are the older epochs its manifest references). The first argument is
// ignored: it is kept only for bench/'s call sites (layers.go:274,
// trace.go:87), and the [benchmark] change of ROADMAP item 7(a) drops it.
//
// The restart epoch is one sequential scan — a single open, then all bytes
// streaming at the filesystem bandwidth (fanned over the reader nodes,
// capped at the aggregate). Every OLDER epoch in the set is random fan-in:
// it pays the open latency again plus a per-shard StorageSeek, so deeper
// chains read slower even when total bytes are unchanged — the price
// incremental checkpointing pays at restart time. A depth-1 read
// (everything fresh in the restart epoch) therefore costs exactly the
// classic RestartReadTime. The fixed lower-half re-initialization cost
// (RestartFixed) is included.
func (m *Model) RestartReadCost(_ StorageTier, reads []EpochRead, nodes int) float64 {
	var bytes int64
	for _, r := range reads {
		bytes += r.Bytes
	}
	cost := m.P.RestartFixed + m.P.StorageLatency + m.transfer(bytes, nodes)
	if len(reads) > 1 {
		for _, r := range reads[1:] {
			cost += m.P.StorageLatency + float64(r.Shards)*m.P.StorageSeek
		}
	}
	return cost
}

// RestartReadTime models restart from a self-contained (depth-1) image:
// reading all images back in one sequential scan plus the fixed cost of
// launching a fresh lower half (MPI re-initialization). Reads are not
// staggered — write staggering is an open-contention device for
// simultaneous writers.
func (m *Model) RestartReadTime(totalBytes int64, nodes int) float64 {
	return m.RestartReadCost(TierPFS, []EpochRead{{Shards: nodes, Bytes: totalBytes}}, nodes)
}
