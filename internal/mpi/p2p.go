package mpi

import "sync"

// message is one point-to-point message queued unexpected: one that reached
// its receiver before a matching receive was posted.
type message struct {
	srcComm  int // comm rank of sender
	commID   uint64
	tag      int
	data     []byte
	arriveVT float64 // virtual time the message reaches the receiver
}

// mailbox holds one rank's unexpected-message queue and posted receives.
// Senders lock the destination mailbox; the owning rank locks it to post
// receives and to park in WaitUntil.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond  // on mu; only the owning rank waits on it
	queue  []*message // unexpected messages, arrival order (FIFO per sender)
	posted []*Request // receives awaiting a match, post order
	free   []*message // consumed messages, reused with their buffers
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond.L = &mb.mu
	return mb
}

// matches reports whether a message sent as (msgComm, msgSrc, msgTag)
// satisfies a (comm, src, tag) receive pattern.
func matches(msgComm uint64, msgSrc, msgTag int, commID uint64, src, tag int) bool {
	return msgComm == commID && (src == AnySource || src == msgSrc) && (tag == AnyTag || tag == msgTag)
}

// Send implements MPI_Send in buffered mode: the sender never blocks on the
// receiver (MANA's p2p drain assumes sends buffer, and the paper's
// algorithms never rely on send-side blocking). The cost model does switch
// at the eager threshold, as real MPI does: small messages pay only the
// local copy into the eager buffer, while large messages pay their full
// network serialization at the sender (the rendezvous pipeline keeps the
// sender busy for size/bandwidth even though matching is asynchronous here).
//
// Under the destination's mailbox lock the payload goes straight into the
// first posted receive that matches (first posted wins, preserving
// non-overtaking order) and completes it; only a message nobody is waiting
// for is built and queued.
func (c *Comm) Send(dst, tag int, data []byte) {
	p := c.p
	model := p.w.Model
	size := len(data)
	p.Ct.P2PSends++
	p.Ct.BytesSent += int64(size)

	dstWorld := c.WorldRank(dst)
	var cost float64
	if size <= model.P.EagerThreshold {
		cost = model.P.SendOverhead + float64(size)/model.P.BwIntra // eager copy
	} else {
		bw := model.P.BwIntra
		if !model.SameNode(p.rank, dstWorld) {
			bw = model.P.BwInter
		}
		cost = model.P.SendOverhead + float64(size)/bw // rendezvous serialization
	}
	p.Clk.Advance(cost)
	arrive := p.Clk.Now() + model.P2PCost(p.rank, dstWorld, size)

	mb := p.w.mail[dstWorld]
	mb.mu.Lock()
	if i := mb.postedFor(c.core.id, c.myRank, tag); i >= 0 {
		// The receive completes, in virtual time, when the message arrives;
		// the receiver's RecvOverhead is charged by the waiter when it
		// synchronizes.
		r := mb.posted[i]
		mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
		r.complete(arrive, Status{Source: c.myRank, Tag: tag, Count: copy(r.buf, data)})
	} else {
		var msg *message
		if k := len(mb.free) - 1; k >= 0 {
			msg, mb.free = mb.free[k], mb.free[:k]
		} else {
			msg = &message{}
		}
		msg.srcComm, msg.commID, msg.tag, msg.arriveVT = c.myRank, c.core.id, tag, arrive
		msg.data = append(msg.data[:0], data...)
		mb.queue = append(mb.queue, msg)
		p.w.NoteActivity()
	}
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// postedFor returns the index of the first posted receive a message with the
// given envelope satisfies, or -1.
func (mb *mailbox) postedFor(commID uint64, srcComm, tag int) int {
	for i, r := range mb.posted {
		if matches(commID, srcComm, tag, r.commID, r.src, r.tag) {
			return i
		}
	}
	return -1
}

// Irecv implements MPI_Irecv: post a receive for (src, tag) into buf. src
// may be AnySource and tag may be AnyTag. If a matching unexpected message
// is already queued, the request completes immediately.
func (c *Comm) Irecv(src, tag int, buf []byte) *Request {
	p := c.p
	p.Ct.P2PRecvs++
	p.Clk.Advance(p.w.Model.P.CallOverhead)

	req := newRequest(p)
	req.commID, req.src, req.tag, req.buf = c.core.id, src, tag, buf

	mb := p.w.mail[p.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, msg := range mb.queue {
		if matches(msg.commID, msg.srcComm, msg.tag, req.commID, src, tag) {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			req.complete(msg.arriveVT, Status{Source: msg.srcComm, Tag: msg.tag, Count: copy(buf, msg.data)})
			p.Ct.BytesRecv += int64(len(msg.data))
			mb.free = append(mb.free, msg)
			return req
		}
	}
	mb.posted = append(mb.posted, req)
	return req
}

// Recv implements MPI_Recv: a posted receive followed by a wait. The
// receiver's clock advances to the message arrival time plus its retire
// cost.
func (c *Comm) Recv(src, tag int, buf []byte) Status {
	req := c.Irecv(src, tag, buf)
	st := req.Wait()
	req.Free()
	c.p.Clk.Advance(c.p.w.Model.P.RecvOverhead)
	c.p.Ct.BytesRecv += int64(st.Count)
	return st
}

// HasQueued reports whether any message matching (src, tag) is queued for
// this rank regardless of virtual arrival time. The checkpoint layer's
// wait-for-targets loop uses it as a wakeup predicate under the mailbox
// lock via Proc.WaitUntil; it charges no cost.
func (c *Comm) HasQueued(src, tag int) bool {
	mb := c.p.w.mail[c.p.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, msg := range mb.queue {
		if matches(msg.commID, msg.srcComm, msg.tag, c.core.id, src, tag) {
			return true
		}
	}
	return false
}

// InflightSnapshot describes one undelivered message captured at checkpoint
// time by the p2p drain.
type InflightSnapshot struct {
	CommID  uint64
	SrcComm int
	Tag     int
	Data    []byte
}

// SnapshotInflight returns a copy of every queued (unreceived) message for
// the given world rank without disturbing the queue. The checkpoint
// coordinator calls this at capture time in checkpoint-and-continue mode:
// the copies go into the image while the live messages remain deliverable.
func (w *World) SnapshotInflight(rank int) []InflightSnapshot {
	mb := w.mail[rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	out := make([]InflightSnapshot, 0, len(mb.queue))
	for _, msg := range mb.queue {
		out = append(out, InflightSnapshot{
			CommID:  msg.commID,
			SrcComm: msg.srcComm,
			Tag:     msg.tag,
			Data:    append([]byte(nil), msg.data...),
		})
	}
	return out
}

// InjectDrained re-queues messages captured by SnapshotInflight into a fresh
// world at restart time. They become immediately available to receives.
func (w *World) InjectDrained(rank int, msgs []InflightSnapshot, atVT float64) {
	mb := w.mail[rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, s := range msgs {
		mb.queue = append(mb.queue, &message{
			srcComm:  s.SrcComm,
			commID:   s.CommID,
			tag:      s.Tag,
			data:     append([]byte(nil), s.Data...),
			arriveVT: atVT,
		})
	}
	mb.cond.Broadcast()
	w.NoteActivity()
}

// PendingPosted reports how many posted-but-unmatched receives the rank has;
// the safe-state invariant checker uses it.
func (w *World) PendingPosted(rank int) int {
	mb := w.mail[rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.posted)
}
