package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mana/internal/netmodel"
)

// collSlot is the shared rendezvous object for one collective operation
// instance: the seq-th collective on a communicator. Member ranks register
// their entry times and stage their payloads under the communicator's mutex;
// the last one to arrive resolves the instance once — common exit time and
// reduced or concatenated result — and every member then reads what it needs
// without recomputing. A slot and its buffers are reused for a later
// instance once every member has left it.
type collSlot struct {
	core *commCore
	spec netmodel.CollSpec
	cond sync.Cond // on core.mu; broadcast when the root has entered and when full

	entries []float64 // entry (initiation) virtual time per comm rank, -1 until seen
	datas   [][]byte  // staged payload per comm rank
	arrived int
	exit    float64 // once full: the synchronizing kinds' common exit, Reduce/Gather's root exit
	result  []byte  // once full: reduction, prefix reductions or concatenation

	left    atomic.Int32 // members done with the instance
	retired bool
}

// slotLocked returns the instance for the seq-th collective on the
// communicator. Members pass through instances in order, so seq is either
// live or the next one, which the first member to reach it claims from the
// free list.
func (core *commCore) slotLocked(seq uint64, kind netmodel.CollKind, size, root int, op Op) *collSlot {
	idx := int(seq - core.base)
	if idx < len(core.live) {
		return core.live[idx]
	}
	if idx > len(core.live) {
		panic(fmt.Sprintf("mpi: comm %d: collective %d entered before %d", core.id, seq, core.base+uint64(len(core.live))))
	}
	var s *collSlot
	if k := len(core.free) - 1; k >= 0 {
		s, core.free = core.free[k], core.free[:k]
	} else {
		n := core.group.Size()
		s = &collSlot{core: core, entries: make([]float64, n), datas: make([][]byte, n)}
		s.cond.L = &core.mu
		s.spec.Geom, s.spec.WorldRanks = core.geom, core.group.WorldRanks()
	}
	s.spec.Kind, s.spec.Size, s.spec.Root, s.spec.ReduceOp = kind, size, root, int(op)
	s.arrived, s.retired, s.result = 0, false, s.result[:0]
	s.left.Store(0)
	for i := range s.entries {
		s.entries[i], s.datas[i] = -1, s.datas[i][:0]
	}
	core.live = append(core.live, s)
	return s
}

// resolveLocked runs once per instance, on the last member's arrival: the
// exit time every waiter would otherwise derive for itself from all n entry
// times, and the data result, folded in comm-rank order.
func (core *commCore) resolveLocked(s *collSlot) {
	model, op := core.w.Model, Op(s.spec.ReduceOp)
	switch s.spec.Kind {
	case netmodel.Bcast, netmodel.Scatter:
		// Exits and data follow from the root's entry alone.
	case netmodel.Reduce, netmodel.Gather:
		s.exit = model.FanInRootExit(s.spec, s.entries)
	default:
		s.exit = model.SyncExit(s.spec, s.entries)
	}
	switch s.spec.Kind {
	case netmodel.Reduce, netmodel.Allreduce, netmodel.ReduceScatter:
		s.result = append(s.result, s.datas[0]...)
		for _, d := range s.datas[1:] {
			applyOp(op, s.result, d)
		}
	case netmodel.Gather, netmodel.Allgather:
		for _, d := range s.datas {
			s.result = append(s.result, d...)
		}
	case netmodel.Scan: // rank i's prefix at block i
		s.result = append(s.result, s.datas[0]...)
		for _, d := range s.datas[1:] {
			k := len(s.result)
			s.result = append(s.result, s.result[k-len(d):]...)
			applyOp(op, s.result[k:], d)
		}
	}
	s.cond.Broadcast()
}

// settledFor reports whether comm rank i's exit time is determined: by the
// root's entry for rooted distributions, at once for Reduce/Gather leaves,
// by full membership otherwise (paper §3: only the last are synchronizing).
func (s *collSlot) settledFor(i int) bool {
	switch s.spec.Kind {
	case netmodel.Bcast, netmodel.Scatter:
		return s.entries[s.spec.Root] >= 0
	case netmodel.Reduce, netmodel.Gather:
		if i != s.spec.Root {
			return true
		}
	}
	return s.arrived == s.spec.Geom.N
}

// exitFor returns comm rank i's exit (for a non-blocking instance:
// completion) time. Requires settledFor(i); the per-rank rules are the ones
// netmodel.CollExits is built from.
func (s *collSlot) exitFor(i int) float64 {
	model, root := s.core.w.Model, s.spec.Root
	switch s.spec.Kind {
	case netmodel.Bcast, netmodel.Scatter:
		if i == root {
			return model.RootedRootExit(s.spec, s.entries[root])
		}
		return model.RootedRecvExit(s.spec, s.entries[i], s.entries[root], i)
	case netmodel.Reduce, netmodel.Gather:
		if i != root {
			return model.FanInLeafExit(s.spec, s.entries[i], i)
		}
	}
	return s.exit
}

// resultInto copies comm rank i's result straight from the instance's staged
// payloads or shared result into out and returns the filled prefix; a nil
// out asks for a fresh buffer of the result's length. Ranks without a result
// (Barrier, the Bcast root, Reduce/Gather leaves) get out[:0]. The instance
// is immutable from the moment i's exit is settled until i leaves it, so
// this runs outside the communicator's mutex.
func (s *collSlot) resultInto(i int, out []byte) []byte {
	if out != nil && len(out) == 0 {
		return out
	}
	n, root := s.spec.Geom.N, s.spec.Root
	var src []byte
	switch s.spec.Kind {
	case netmodel.Bcast:
		if i != root {
			src = s.datas[root]
		}
	case netmodel.Scatter:
		blk := len(s.datas[root]) / n
		src = s.datas[root][i*blk : (i+1)*blk]
	case netmodel.Reduce, netmodel.Gather:
		if i == root {
			src = s.result
		}
	case netmodel.Allreduce, netmodel.Allgather:
		src = s.result
	case netmodel.Scan, netmodel.ReduceScatter:
		blk := len(s.result) / n
		src = s.result[i*blk : (i+1)*blk]
	case netmodel.Alltoall: // block i of every member's payload, in comm-rank order
		blk := len(s.datas[0]) / n
		if out == nil {
			out = make([]byte, blk*n)
		}
		off := 0
		for j := 0; j < n && off < len(out); j++ {
			off += copy(out[off:], s.datas[j][i*blk:(i+1)*blk])
		}
		return out[:off]
	}
	if out == nil && len(src) > 0 {
		out = make([]byte, len(src))
	}
	return out[:copy(out, src)]
}

// leave marks one member done with the instance; the last one out retires
// it, and retired instances at the head of the live window go back to the
// free list.
func (core *commCore) leave(s *collSlot) {
	if int(s.left.Add(1)) < s.spec.Geom.N {
		return
	}
	core.mu.Lock()
	s.retired = true
	k := 0
	for k < len(core.live) && core.live[k].retired {
		core.free = append(core.free, core.live[k])
		k++
	}
	core.base += uint64(k)
	core.live = core.live[:copy(core.live, core.live[k:])]
	core.mu.Unlock()
}

// payloadOf applies the per-kind contribution rules: the per-rank size the
// cost model sees and the bytes this rank stages (only the root's for Bcast
// and Scatter, whose non-roots do not know the size).
func (c *Comm) payloadOf(kind netmodel.CollKind, root int, in []byte) (size int, payload []byte) {
	n := c.Size()
	size, payload = len(in), in
	switch kind {
	case netmodel.Bcast:
		if c.myRank != root {
			payload = nil
		}
	case netmodel.Scatter:
		if c.myRank != root {
			return 0, nil
		}
		fallthrough
	case netmodel.Alltoall, netmodel.ReduceScatter:
		if len(in)%n != 0 {
			panic(fmt.Sprintf("mpi: %v payload %d not divisible by comm size %d", kind, len(in), n))
		}
		size = len(in) / n
	}
	return size, payload
}

// enter registers the caller in its next collective on the communicator —
// entry time and staged payload — and resolves the instance if the caller
// completes it. A blocking caller then sleeps, at most once, until its exit
// time is settled, and gets it back; a non-blocking caller returns at once.
func (c *Comm) enter(kind netmodel.CollKind, size, root int, op Op, payload []byte, nb bool) (s *collSlot, exit float64) {
	p, core, i := c.p, c.core, c.myRank
	seq := c.collSeq
	c.collSeq++
	p.Ct.Collective(kind, size, nb)
	p.Clk.Advance(p.w.Model.P.CallOverhead)
	p.w.NoteActivity()

	full := false
	core.mu.Lock()
	defer func() { // also on a panic out of the wait or the reduction
		core.mu.Unlock()
		if full && nb {
			// Non-blocking instance just became completable: wake the
			// members' mailboxes so a rank blocked in Wait re-evaluates.
			for _, wr := range s.spec.WorldRanks {
				p.w.Wake(wr)
			}
		}
	}()
	s = core.slotLocked(seq, kind, size, root, op)
	if s.spec.Kind != kind || s.entries[i] >= 0 {
		panic(fmt.Sprintf("mpi: rank %d entered %v on comm %d seq %d, which is %v with entry %g (erroneous program)",
			i, kind, core.id, seq, s.spec.Kind, s.entries[i]))
	}
	s.entries[i] = p.Clk.Now()
	s.datas[i] = append(s.datas[i], payload...)
	s.arrived++
	if i == root && (kind == netmodel.Bcast || kind == netmodel.Scatter) {
		s.spec.Size = size // the root's, whoever claimed the slot
		s.cond.Broadcast()
	}
	if full = s.arrived == s.spec.Geom.N; full {
		core.resolveLocked(s)
	}
	if nb {
		return s, 0
	}
	parked := false
	for !s.settledFor(i) {
		p.w.checkAbort()
		parked = true
		p.waitSite.Store(&siteCollective)
		s.cond.Wait()
	}
	if parked {
		p.waitSite.Store(nil)
	}
	return s, s.exitFor(i)
}

// noData is the out buffer of a collective that moves no bytes.
var noData = []byte{}

// exchange runs one blocking collective: stage in, wait as the kind's
// semantics require, advance the clock to the exit time, copy the caller's
// result into out (see resultInto for a nil out).
func (c *Comm) exchange(kind netmodel.CollKind, size, root int, op Op, payload, out []byte) []byte {
	s, exit := c.enter(kind, size, root, op, payload, false)
	c.p.Clk.SyncTo(exit)
	out = s.resultInto(c.myRank, out)
	c.core.leave(s)
	return out
}

// Collective executes one blocking data-carrying collective of the given
// kind in place: in is the caller's contribution (the whole buffer for
// Alltoall, Scatter's root and ReduceScatter; ignored where the kind takes
// none from this rank) and out receives its result, if it has one. in and
// out may be the same buffer. It returns the number of bytes written to out.
func (c *Comm) Collective(kind netmodel.CollKind, root int, op Op, in, out []byte) int {
	if out == nil {
		out = noData
	}
	size, payload := c.payloadOf(kind, root, in)
	return len(c.exchange(kind, size, root, op, payload, out))
}

// Allgather implements MPI_Allgather with the result in a new buffer: the
// exchange behind Comm.Split.
func (c *Comm) Allgather(data []byte) []byte {
	size, payload := c.payloadOf(netmodel.Allgather, 0, data)
	return c.exchange(netmodel.Allgather, size, 0, OpSum, payload, nil)
}
