package mpi

import (
	"sync"
	"sync/atomic"
)

// Status describes a completed receive, mirroring MPI_Status.
type Status struct {
	Source int // comm rank of the sender
	Tag    int
	Count  int // bytes received
}

// Request is the handle of a non-blocking operation (MPI_Request). A request
// is created by Irecv or an I-collective and completed by Wait.
type Request struct {
	p *Proc

	// done is stored last by complete; completeVT and status may be read
	// once it is observed. A receive is completed by its sender.
	done       atomic.Bool
	completeVT float64
	status     Status

	// Receive plumbing: the match pattern while posted and the destination
	// buffer (filled at match time; a collective's out buffer otherwise).
	commID   uint64
	src, tag int
	buf      []byte

	// Collective plumbing, slot nil for a receive. mu makes collDone
	// single-flight: the owner and the checkpoint coordinator's drain both
	// poll.
	mu       sync.Mutex
	slot     *collSlot
	slotRank int // comm rank within the collective
}

// newRequest takes a request from the rank's free list or allocates one.
// Only the owning rank's goroutine creates and frees its requests.
func newRequest(p *Proc) *Request {
	if k := len(p.freeReqs) - 1; k >= 0 {
		r := p.freeReqs[k]
		p.freeReqs = p.freeReqs[:k]
		return r
	}
	return &Request{p: p}
}

// Free returns a completed request to its rank's free list
// (MPI_Request_free after completion). The caller must hold the only
// reference and must not use the request afterwards.
func (r *Request) Free() {
	r.done.Store(false)
	r.buf, r.slot = nil, nil
	r.p.freeReqs = append(r.p.freeReqs, r)
}

// complete marks the request done at virtual time vt with the given status.
func (r *Request) complete(vt float64, st Status) {
	r.completeVT, r.status = vt, st
	r.done.Store(true)
	r.p.w.NoteActivity()
}

// Done reports (without charging any cost or blocking) whether the request
// has completed. The checkpointing layer uses this for bookkeeping.
func (r *Request) Done() bool {
	return r == nil || r.done.Load() || r.slot != nil && r.collDone()
}

// collDone resolves completion for collective requests against the slot: a
// non-blocking collective completes once every participant has initiated
// it. The first poll to see that copies the result out and leaves the slot.
func (r *Request) collDone() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done.Load() {
		return true
	}
	s := r.slot
	s.core.mu.Lock()
	full := s.arrived == s.spec.Geom.N
	var vt float64
	if full {
		vt = s.exitFor(r.slotRank)
	}
	s.core.mu.Unlock()
	if !full {
		return false
	}
	if r.buf != nil {
		s.resultInto(r.slotRank, r.buf)
	}
	s.core.leave(s)
	r.complete(vt, Status{})
	return true
}

// Wait implements MPI_Wait: it blocks (really, in the host program) until
// the operation completes, then advances the caller's clock to the later of
// its current time and the completion time. The virtual cost of waiting is
// therefore the time actually waited for the event, as in real MPI.
//
// The block rides the owner's mailbox condition, so World.WakeAll (used by
// the checkpoint coordinator) forces a re-evaluation; completion is detected
// through Done, which resolves collective requests lazily.
func (r *Request) Wait() Status {
	r.p.Ct.Waits++
	r.p.Clk.Advance(r.p.w.Model.P.CallOverhead)
	if !r.Done() {
		r.p.WaitUntilAt(&siteRequestWait, r.Done)
	}
	r.p.Clk.SyncTo(r.completeVT)
	return r.status
}
