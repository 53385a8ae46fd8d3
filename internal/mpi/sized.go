package mpi

import "mana/internal/netmodel"

// Size-only collectives: they rendezvous and cost virtual time exactly like
// their data-carrying counterparts for the given payload size, but move no
// actual bytes. Micro-benchmarks (OSU-style) use them so that, e.g., a 1 MB
// Alltoall across 2048 simulated ranks does not require terabytes of host
// memory. Timing semantics (synchronizing vs rooted early-exit) are
// identical to the data path because both share the same slot machinery and
// cost model.

// CollectiveSized executes a blocking collective of the given kind and
// per-rank payload size without moving data.
func (c *Comm) CollectiveSized(kind netmodel.CollKind, root, size int) {
	c.exchange(kind, size, root, OpSum, nil, noData)
}

// ICollectiveSized initiates a non-blocking size-only collective.
func (c *Comm) ICollectiveSized(kind netmodel.CollKind, root, size int) *Request {
	return c.istart(kind, size, root, OpSum, nil, nil)
}
