package mpi

// Group set operations, mirroring MPI_Group_union / _intersection /
// _difference / _incl / _excl. All are purely local (no communication), as
// in MPI. Result ordering follows the MPI standard: union keeps the first
// group's order followed by members only in the second; intersection and
// difference keep the first group's order.

// GroupUnion returns a ∪ b.
func GroupUnion(a, b *Group) *Group {
	out := make([]int, 0, a.Size()+b.Size())
	out = append(out, a.ranks...)
	for _, r := range b.ranks {
		if !a.Contains(r) {
			out = append(out, r)
		}
	}
	return NewGroup(out)
}

// GroupIntersection returns a ∩ b, in a's order.
func GroupIntersection(a, b *Group) *Group {
	out := make([]int, 0, a.Size())
	for _, r := range a.ranks {
		if b.Contains(r) {
			out = append(out, r)
		}
	}
	return NewGroup(out)
}

// GroupDifference returns a \ b, in a's order.
func GroupDifference(a, b *Group) *Group {
	out := make([]int, 0, a.Size())
	for _, r := range a.ranks {
		if !b.Contains(r) {
			out = append(out, r)
		}
	}
	return NewGroup(out)
}

// Incl returns the subgroup with the members at the given group ranks, in
// that order (MPI_Group_incl).
func (g *Group) Incl(groupRanks []int) *Group {
	out := make([]int, len(groupRanks))
	for i, r := range groupRanks {
		out[i] = g.WorldRank(r)
	}
	return NewGroup(out)
}

// Excl returns the subgroup without the members at the given group ranks
// (MPI_Group_excl), preserving order.
func (g *Group) Excl(groupRanks []int) *Group {
	drop := make(map[int]bool, len(groupRanks))
	for _, r := range groupRanks {
		drop[r] = true
	}
	out := make([]int, 0, g.Size())
	for i, w := range g.ranks {
		if !drop[i] {
			out = append(out, w)
		}
	}
	return NewGroup(out)
}

// TranslateRanks maps ranks in group a to the corresponding ranks in group
// b (MPI_Group_translate_ranks); absent members map to -1. Purely local —
// the operation the CC algorithm relies on to discover peer world ranks
// (paper §4.2.4).
func TranslateRanks(a *Group, aRanks []int, b *Group) []int {
	out := make([]int, len(aRanks))
	for i, ar := range aRanks {
		out[i] = b.RankOf(a.WorldRank(ar))
	}
	return out
}

// Equal reports MPI_IDENT: same members in the same order.
func Equal(a, b *Group) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := range a.ranks {
		if a.ranks[i] != b.ranks[i] {
			return false
		}
	}
	return true
}

// CommCreate implements MPI_Comm_create: collective over c, returning a new
// communicator for the members of group (nil for non-members). group must
// be a subset of c's group and identical on every caller.
func (c *Comm) CommCreate(group *Group) *Comm {
	color := -1
	key := 0
	if i := group.RankOf(c.WorldRank(c.myRank)); i >= 0 {
		color = 0
		key = i
	}
	return c.Split(color, key)
}

// Sendrecv implements MPI_Sendrecv: a combined send and receive that cannot
// deadlock against another Sendrecv. dst/src of -1 (MPI_PROC_NULL) skip the
// corresponding half.
func (c *Comm) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) Status {
	var req *Request
	if src >= 0 {
		req = c.Irecv(src, recvTag, recvBuf)
	}
	if dst >= 0 {
		c.Send(dst, sendTag, sendData)
	}
	if req != nil {
		st := req.Wait()
		c.p.Clk.Advance(c.p.w.Model.P.RecvOverhead)
		c.p.Ct.BytesRecv += int64(st.Count)
		return st
	}
	return Status{Source: -1, Tag: recvTag}
}

// Waitany blocks until at least one of the requests completes and returns
// its index (MPI_Waitany). Completed (or nil) requests short-circuit.
func Waitany(reqs []*Request) (int, Status) {
	if len(reqs) == 0 {
		return -1, Status{}
	}
	var p *Proc
	for _, r := range reqs {
		if r != nil {
			p = r.p
			break
		}
	}
	if p == nil {
		return -1, Status{}
	}
	idx := -1
	p.WaitUntil(func() bool {
		for i, r := range reqs {
			if r != nil && r.Done() {
				idx = i
				return true
			}
		}
		return false
	})
	st := reqs[idx].Wait()
	return idx, st
}

// Testall reports whether every request has completed, charging one poll
// (MPI_Testall).
func Testall(p *Proc, reqs []*Request) bool {
	p.Ct.Tests++
	p.Clk.Advance(p.w.Model.P.CallOverhead)
	for _, r := range reqs {
		if r != nil && !r.Done() {
			return false
		}
	}
	for _, r := range reqs {
		if r != nil {
			p.Clk.SyncTo(r.completeVT)
		}
	}
	return true
}

// Probe blocks until a matching message is available (MPI_Probe) and
// returns its status without receiving it.
func (c *Comm) Probe(src, tag int) Status {
	p := c.p
	p.Ct.Probes++
	p.Clk.Advance(p.w.Model.P.CallOverhead)
	var st Status
	p.WaitUntil(func() bool {
		mb := p.w.mail[p.rank]
		for _, msg := range mb.queue {
			if matches(msg.commID, msg.srcComm, msg.tag, c.core.id, src, tag) {
				st = Status{Source: msg.srcComm, Tag: msg.tag, Count: len(msg.data)}
				p.Clk.SyncTo(msg.arriveVT)
				return true
			}
		}
		return false
	})
	return st
}
