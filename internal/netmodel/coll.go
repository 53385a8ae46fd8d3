package netmodel

// CollKind enumerates the collective operations the simulator models.
type CollKind int

// The supported collective kinds. The I-variants share the same cost model;
// the simulator distinguishes blocking from non-blocking at the call layer.
const (
	Barrier CollKind = iota
	Bcast
	Reduce
	Allreduce
	Gather
	Allgather
	Alltoall
	Scatter
	Scan
	ReduceScatter
)

var collNames = [...]string{
	Barrier: "Barrier", Bcast: "Bcast", Reduce: "Reduce",
	Allreduce: "Allreduce", Gather: "Gather", Allgather: "Allgather",
	Alltoall: "Alltoall", Scatter: "Scatter", Scan: "Scan",
	ReduceScatter: "ReduceScatter",
}

// String returns the MPI-style name of the collective kind.
func (k CollKind) String() string {
	if k >= 0 && int(k) < len(collNames) {
		return collNames[k]
	}
	return "Unknown"
}

// Synchronizing reports whether the collective inherently acts as a barrier
// (every rank's exit depends on every rank's entry). Root-oriented
// collectives (Bcast, Scatter: root exits early; Reduce, Gather: leaves exit
// early) are not synchronizing, which is exactly why 2PC's inserted barrier
// hurts them the most (paper §5.1.1).
func (k CollKind) Synchronizing() bool {
	switch k {
	case Barrier, Allreduce, Allgather, Alltoall, Scan, ReduceScatter:
		return true
	}
	return false
}

// CollSpec describes one collective operation instance for costing purposes.
type CollSpec struct {
	Kind CollKind
	Size int // per-rank payload bytes (block size for Alltoall/Allgather)
	Root int // comm-rank of the root for rooted collectives
	Geom Geometry
	// WorldRanks[i] is the world rank of comm rank i; used for per-rank
	// placement when shaping exit times.
	WorldRanks []int
	// ReduceOp is an opaque reduction-operation code carried for the
	// simulator's benefit; the cost model does not interpret it.
	ReduceOp int
}

// CollExits computes, for each comm rank, the virtual time at which that
// rank may return from the collective, given each rank's entry time.
//
// The model is hierarchical-tree/LogGP shaped:
//
//   - Synchronizing collectives: every rank exits at
//     max(entries) + duration(kind, geometry, size).
//   - Bcast/Scatter: the root exits shortly after entering; comm rank i
//     exits at max(entry_i, entry_root + depth_i*hop) — data cannot arrive
//     before the root sent it, but receivers never wait for each other.
//   - Reduce/Gather: the mirror image — leaves exit shortly after entering
//     (their contribution is injected), the root exits at
//     max(entries) + duration.
//
// The returned slice has one exit time per comm rank.
func (m *Model) CollExits(spec CollSpec, entries []float64) []float64 {
	n := spec.Geom.N
	exits := make([]float64, n)
	switch spec.Kind {
	case Bcast, Scatter:
		rootEntry := entries[spec.Root]
		for i := range exits {
			if i == spec.Root {
				exits[i] = m.RootedRootExit(spec, rootEntry)
				continue
			}
			exits[i] = m.RootedRecvExit(spec, entries[i], rootEntry, i)
		}
	case Reduce, Gather:
		rootExit := m.FanInRootExit(spec, entries)
		for i := range exits {
			if i == spec.Root {
				exits[i] = rootExit
				continue
			}
			exits[i] = m.FanInLeafExit(spec, entries[i], i)
		}
	default: // synchronizing kinds
		t := m.SyncExit(spec, entries)
		for i := range exits {
			exits[i] = t
		}
	}
	return exits
}

// syncDuration returns the post-synchronization duration of a synchronizing
// collective (the time from the last entry until the common exit).
func (m *Model) syncDuration(spec CollSpec) float64 {
	g := spec.Geom
	size := spec.Size
	switch spec.Kind {
	case Barrier:
		// Dissemination barrier: log rounds of zero-byte exchanges, paying
		// inter-node latency whenever the group spans nodes.
		return m.treeCost(g, 0) * 2
	case Allreduce:
		// Recursive doubling: log2(N) rounds each moving the payload plus
		// the reduction compute.
		rounds := float64(log2ceil(g.N))
		return m.treeCost(g, size)*2 + rounds*float64(size)*m.P.ReducePerByte
	case Allgather:
		// Ring/recursive-doubling hybrid: latency term log-shaped, bandwidth
		// term proportional to the total gathered data.
		total := float64(size) * float64(g.N-1)
		return m.treeCost(g, 0) + total/m.bwFor(g)
	case Alltoall:
		// Pairwise exchange: N-1 rounds, each moving one block; rounds that
		// leave the node pay network bandwidth.
		total := float64(size) * float64(g.N-1)
		lat := float64(log2ceil(g.N)) * m.latFor(g)
		return lat + total/m.bwFor(g)
	case Scan, ReduceScatter:
		rounds := float64(log2ceil(g.N))
		return m.treeCost(g, size) + rounds*float64(size)*m.P.ReducePerByte
	default:
		return m.treeCost(g, size)
	}
}

// latFor returns the dominant per-hop latency for a geometry.
func (m *Model) latFor(g Geometry) float64 {
	if g.HasInter {
		return m.P.LatencyInter
	}
	return m.P.LatencyIntra
}

// bwFor returns the dominant per-flow bandwidth for a geometry.
func (m *Model) bwFor(g Geometry) float64 {
	if g.HasInter {
		return m.P.BwInter
	}
	return m.P.BwIntra
}

// rankHop returns the hop cost used for tree edges incident to comm rank i:
// inter-node if the group spans nodes, else intra-node.
func (m *Model) rankHop(spec CollSpec, i int) float64 {
	if spec.Geom.HasInter {
		return m.hop(true, spec.Size)
	}
	return m.hop(false, spec.Size)
}

func maxTwo(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
