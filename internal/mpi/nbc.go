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
	r := newRequest(reqColl, c.p)
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

// Ibcast implements MPI_Ibcast: on the root, buf supplies the payload; on
// other ranks buf receives it at completion.
func (c *Comm) Ibcast(root int, buf []byte) *Request {
	return c.ICollective(netmodel.Bcast, root, OpSum, buf, buf)
}

// Iallreduce implements MPI_Iallreduce; out receives the reduced vector and
// must be at least as long as data.
func (c *Comm) Iallreduce(op Op, data, out []byte) *Request {
	return c.ICollective(netmodel.Allreduce, 0, op, data, out)
}

// Iallgather implements MPI_Iallgather; out must hold Size()*len(data).
func (c *Comm) Iallgather(data, out []byte) *Request {
	return c.ICollective(netmodel.Allgather, 0, OpSum, data, out)
}

// Ialltoall implements MPI_Ialltoall; data holds Size() equal blocks and out
// must be the same length.
func (c *Comm) Ialltoall(data, out []byte) *Request {
	return c.ICollective(netmodel.Alltoall, 0, OpSum, data, out)
}

// Ireduce implements MPI_Ireduce; out receives the result on the root.
func (c *Comm) Ireduce(root int, op Op, data, out []byte) *Request {
	return c.ICollective(netmodel.Reduce, root, op, data, out)
}
