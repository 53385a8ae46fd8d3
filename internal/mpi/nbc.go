package mpi

import "mana/internal/netmodel"

// Non-blocking collectives. Initiation registers the rank in the slot and
// returns immediately with a Request; the operation "progresses in the
// background" and completes — per rank, at the netmodel-computed time — once
// every participant has initiated it. After that point completion is
// independent of any other MPI activity (MPI-4.0 Example 6.36; paper §3's
// second key point). Results are copied into the out buffer when the request
// completes via Test or Wait.

// istart initiates a non-blocking collective and returns its request; out
// (nil for none) receives the caller's result when the request completes.
func (c *Comm) istart(kind netmodel.CollKind, size, root int, op Op, payload, out []byte) *Request {
	s, _ := c.enter(kind, size, root, op, payload, true)
	r := newRequest(c.p)
	r.slot, r.slotRank, r.buf = s, c.myRank, out
	return r
}

// ICollective initiates a data-carrying non-blocking collective, the
// counterpart of Collective: out receives the caller's result at completion.
func (c *Comm) ICollective(kind netmodel.CollKind, root int, op Op, in, out []byte) *Request {
	size, payload := c.payloadOf(kind, root, in)
	return c.istart(kind, size, root, op, payload, out)
}

// Ibarrier implements MPI_Ibarrier. (This is also the building block the
// 2PC algorithm inserts before every collective.)
func (c *Comm) Ibarrier() *Request {
	return c.ICollective(netmodel.Barrier, 0, OpSum, nil, nil)
}
