package mpi

import (
	"encoding/binary"
	"sync"
	"testing"

	"mana/internal/netmodel"
)

// runRanks spins up a world of n ranks (ppn per node) and executes fn on
// every rank concurrently, as an MPI program would.
func runRanks(t *testing.T, n, ppn int, fn func(c *Comm)) *World {
	t.Helper()
	w := NewWorld(n, netmodel.New(netmodel.PerlmutterLike(), ppn))
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(w.WorldComm(rank))
		}(r)
	}
	wg.Wait()
	return w
}

// collective runs one blocking collective through Comm.Collective, the call
// the runtime's wrappers make, with an outLen-byte result buffer. It returns
// the filled prefix, or nil where the caller gets no result (Barrier, the
// Bcast root, Reduce and Gather leaves).
func collective(c *Comm, kind netmodel.CollKind, root int, op Op, in []byte, outLen int) []byte {
	out := make([]byte, outLen)
	if n := c.Collective(kind, root, op, in, out); n > 0 {
		return out[:n]
	}
	return nil
}

// allreduce is collective for MPI_Allreduce.
func allreduce(c *Comm, op Op, in []byte) []byte {
	return collective(c, netmodel.Allreduce, 0, op, in, len(in))
}

func TestWorldConstruction(t *testing.T) {
	w := NewWorld(8, netmodel.New(netmodel.PerlmutterLike(), 4))
	c := w.WorldComm(3)
	if c.Rank() != 3 || c.Size() != 8 {
		t.Fatalf("world comm wrong: rank %d size %d", c.Rank(), c.Size())
	}
	if c.core.id != worldCommID {
		t.Fatalf("world comm id %d", c.core.id)
	}
	if c.WorldRank(5) != 5 {
		t.Fatal("world comm must be identity-mapped")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) should panic")
		}
	}()
	NewWorld(0, w.Model)
}

func TestGroupBasics(t *testing.T) {
	g := NewGroup([]int{5, 2, 9})
	if g.Size() != 3 || g.WorldRank(1) != 2 {
		t.Fatal("group accessors wrong")
	}
	s := g.SortedWorldRanks()
	if s[0] != 2 || s[1] != 5 || s[2] != 9 {
		t.Fatalf("sorted wrong: %v", s)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(-3) // ignored
	if c.Now() != 1.5 {
		t.Fatalf("clock %g", c.Now())
	}
	c.SyncTo(1.0) // no-op backwards
	if c.Now() != 1.5 {
		t.Fatal("SyncTo moved clock backward")
	}
	c.SyncTo(2.5)
	if c.Now() != 2.5 {
		t.Fatal("SyncTo failed")
	}
	c.Set(0.5)
	if c.Now() != 0.5 {
		t.Fatal("Set failed")
	}
}

func TestSendRecvBasic(t *testing.T) {
	runRanks(t, 2, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []byte("hello"))
		case 1:
			buf := make([]byte, 16)
			st := c.Recv(0, 7, buf)
			if string(buf[:st.Count]) != "hello" {
				t.Errorf("got %q", buf[:st.Count])
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != 5 {
				t.Errorf("status %+v", st)
			}
			if c.p.Clk.Now() <= 0 {
				t.Error("receive should cost virtual time")
			}
		}
	})
}

func TestRecvBeforeSend(t *testing.T) {
	// Posted receive matched by a later send.
	runRanks(t, 2, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			buf := make([]byte, 8)
			st := c.Recv(1, 3, buf)
			if string(buf[:st.Count]) != "late" {
				t.Errorf("got %q", buf[:st.Count])
			}
		case 1:
			c.p.Compute(1e-3)
			c.Send(0, 3, []byte("late"))
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runRanks(t, 3, 4, func(c *Comm) {
		switch c.Rank() {
		case 1:
			c.Send(0, 11, []byte{1})
		case 2:
			c.Send(0, 22, []byte{2})
		case 0:
			buf := make([]byte, 1)
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				st := c.Recv(AnySource, AnyTag, buf)
				seen[st.Source] = true
				if int(buf[0]) != st.Source {
					t.Errorf("payload %d from %d", buf[0], st.Source)
				}
			}
			if !seen[1] || !seen[2] {
				t.Errorf("sources seen: %v", seen)
			}
		}
	})
}

func TestFIFOOrderingPerPair(t *testing.T) {
	// Non-overtaking: same (src, comm, tag) messages arrive in send order.
	runRanks(t, 2, 2, func(c *Comm) {
		const k = 50
		switch c.Rank() {
		case 0:
			for i := 0; i < k; i++ {
				c.Send(1, 5, []byte{byte(i)})
			}
		case 1:
			buf := make([]byte, 1)
			for i := 0; i < k; i++ {
				c.Recv(0, 5, buf)
				if int(buf[0]) != i {
					t.Fatalf("message %d arrived out of order (got %d)", i, buf[0])
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	runRanks(t, 2, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, []byte("one"))
			c.Send(1, 2, []byte("two"))
		case 1:
			buf := make([]byte, 8)
			st := c.Recv(0, 2, buf) // tag 2 first, skipping tag 1
			if string(buf[:st.Count]) != "two" {
				t.Errorf("tag-2 recv got %q", buf[:st.Count])
			}
			st = c.Recv(0, 1, buf)
			if string(buf[:st.Count]) != "one" {
				t.Errorf("tag-1 recv got %q", buf[:st.Count])
			}
		}
	})
}

// TestIrecvFanIn: receives posted to every peer before any send are each
// matched by the peer's Send and completed by Wait.
func TestIrecvFanIn(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		n := c.Size()
		me := c.Rank()
		bufs := make([][]byte, n)
		var reqs []*Request
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			bufs[p] = make([]byte, 1)
			reqs = append(reqs, c.Irecv(p, 9, bufs[p]))
		}
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			c.Send(p, 9, []byte{byte(me)})
		}
		for _, r := range reqs {
			r.Wait()
		}
		for p := 0; p < n; p++ {
			if p != me && int(bufs[p][0]) != p {
				t.Errorf("rank %d: from %d got %d", me, p, bufs[p][0])
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := runRanks(t, 8, 4, func(c *Comm) {
		if c.Rank() == 3 {
			c.p.Compute(2.0) // straggler
		}
		collective(c, netmodel.Barrier, 0, OpSum, nil, 0)
		if c.p.Clk.Now() < 2.0 {
			t.Errorf("rank %d exited barrier at %g, before straggler entry", c.Rank(), c.p.Clk.Now())
		}
	})
	_ = w
}

func TestBcastData(t *testing.T) {
	runRanks(t, 8, 4, func(c *Comm) {
		buf := make([]byte, 4)
		if c.Rank() == 2 {
			copy(buf, "data")
		}
		c.Collective(netmodel.Bcast, 2, OpSum, buf, buf)
		if string(buf) != "data" {
			t.Errorf("rank %d bcast got %q", c.Rank(), buf)
		}
	})
}

func TestBcastRootNotDelayedByStragglers(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		if c.Rank() != 0 {
			c.p.Compute(5.0)
		}
		buf := []byte{42}
		c.Collective(netmodel.Bcast, 0, OpSum, buf, buf)
		if c.Rank() == 0 && c.p.Clk.Now() > 1.0 {
			t.Errorf("bcast root waited for stragglers: %g", c.p.Clk.Now())
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	runRanks(t, 8, 4, func(c *Comm) {
		in := F64Bytes([]float64{float64(c.Rank()), 1})
		out := BytesF64(allreduce(c, OpSum, in))
		if out[0] != 28 || out[1] != 8 { // 0+..+7=28
			t.Errorf("rank %d allreduce got %v", c.Rank(), out)
		}
	})
}

func TestAllreduceMaxMinProd(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		v := float64(c.Rank() + 1)
		if got := BytesF64(allreduce(c, OpMax, F64Bytes([]float64{v})))[0]; got != 4 {
			t.Errorf("max got %v", got)
		}
		if got := BytesF64(allreduce(c, OpMin, F64Bytes([]float64{v})))[0]; got != 1 {
			t.Errorf("min got %v", got)
		}
		if got := BytesF64(allreduce(c, OpProd, F64Bytes([]float64{v})))[0]; got != 24 {
			t.Errorf("prod got %v", got)
		}
	})
}

func TestReduceAtRootOnly(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		res := collective(c, netmodel.Reduce, 1, OpSum, F64Bytes([]float64{2}), 8)
		if c.Rank() == 1 {
			if BytesF64(res)[0] != 8 {
				t.Errorf("reduce root got %v", BytesF64(res))
			}
		} else if res != nil {
			t.Errorf("non-root got result %v", res)
		}
	})
}

func TestGatherAllgather(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		me := byte(c.Rank())
		res := collective(c, netmodel.Gather, 0, OpSum, []byte{me}, c.Size())
		if c.Rank() == 0 {
			if string(res) != "\x00\x01\x02\x03" {
				t.Errorf("gather got %v", res)
			}
		}
		all := collective(c, netmodel.Allgather, 0, OpSum, []byte{me * 2}, c.Size())
		want := []byte{0, 2, 4, 6}
		for i := range want {
			if all[i] != want[i] {
				t.Errorf("allgather got %v", all)
				break
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		me := c.Rank()
		// Block j carries value me*10+j.
		data := make([]byte, 4)
		for j := range data {
			data[j] = byte(me*10 + j)
		}
		res := collective(c, netmodel.Alltoall, 0, OpSum, data, len(data))
		for j := 0; j < 4; j++ {
			if int(res[j]) != j*10+me {
				t.Errorf("rank %d alltoall block %d = %d, want %d", me, j, res[j], j*10+me)
			}
		}
	})
}

func TestScatter(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		var data []byte
		if c.Rank() == 0 {
			data = []byte{10, 11, 12, 13}
		}
		res := collective(c, netmodel.Scatter, 0, OpSum, data, 1)
		if len(res) != 1 || int(res[0]) != 10+c.Rank() {
			t.Errorf("rank %d scatter got %v", c.Rank(), res)
		}
	})
}

func TestScan(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		res := BytesF64(collective(c, netmodel.Scan, 0, OpSum, F64Bytes([]float64{1}), 8))
		if res[0] != float64(c.Rank()+1) {
			t.Errorf("rank %d scan got %v", c.Rank(), res)
		}
	})
}

func TestReduceScatter(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		// Each rank contributes [1,1,1,1]; each receives its block summed = 4.
		res := BytesF64(collective(c, netmodel.ReduceScatter, 0, OpSum, F64Bytes([]float64{1, 1, 1, 1}), 8))
		if len(res) != 1 || res[0] != 4 {
			t.Errorf("rank %d reduce_scatter got %v", c.Rank(), res)
		}
	})
}

func TestCommSplit(t *testing.T) {
	runRanks(t, 8, 4, func(c *Comm) {
		color := c.Rank() % 2
		sub := c.Split(color, c.Rank())
		if sub.Size() != 4 {
			t.Errorf("split size %d", sub.Size())
		}
		if sub.Rank() != c.Rank()/2 {
			t.Errorf("rank %d got split rank %d", c.Rank(), sub.Rank())
		}
		// Collectives on the sub-communicator work and stay within it.
		sum := BytesF64(allreduce(sub, OpSum, F64Bytes([]float64{float64(c.Rank())})))
		want := 0.0
		for r := color; r < 8; r += 2 {
			want += float64(r)
		}
		if sum[0] != want {
			t.Errorf("split allreduce got %v want %v", sum[0], want)
		}
		// Same-color members share the comm ID; different colors don't.
		idb := make([]byte, 8)
		binary.LittleEndian.PutUint64(idb, sub.core.id)
		ids := c.Allgather(idb)
		for r := 0; r < 8; r++ {
			got := binary.LittleEndian.Uint64(ids[r*8:])
			same := r%2 == color
			if same && got != sub.core.id {
				t.Errorf("member %d has different comm id", r)
			}
			if !same && got == sub.core.id {
				t.Errorf("non-member %d shares comm id", r)
			}
		}
	})
}

func TestCommSplitUndefined(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color must yield nil comm")
			}
			return
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: bad sub comm", c.Rank())
		}
		collective(sub, netmodel.Barrier, 0, OpSum, nil, 0)
	})
}

func TestDeterministicCommIDs(t *testing.T) {
	var id1, id2 uint64
	runRanks(t, 4, 4, func(c *Comm) {
		s := c.Split(c.Rank()%2, 0)
		if c.Rank() == 0 {
			id1 = s.core.id
		}
	})
	runRanks(t, 4, 4, func(c *Comm) {
		s := c.Split(c.Rank()%2, 0)
		if c.Rank() == 0 {
			id2 = s.core.id
		}
	})
	if id1 != id2 || id1 == 0 {
		t.Fatalf("comm ids not deterministic across runs: %d vs %d", id1, id2)
	}
}

func TestNonblockingAllreduce(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		out := make([]byte, 8)
		req := c.ICollective(netmodel.Allreduce, 0, OpSum, F64Bytes([]float64{1}), out)
		c.p.Compute(1e-3) // overlap
		req.Wait()
		if BytesF64(out)[0] != 4 {
			t.Errorf("iallreduce got %v", BytesF64(out))
		}
	})
}

func TestNonblockingBcast(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		buf := make([]byte, 3)
		if c.Rank() == 0 {
			copy(buf, "abc")
		}
		req := c.ICollective(netmodel.Bcast, 0, OpSum, buf, buf)
		req.Wait()
		if string(buf) != "abc" {
			t.Errorf("rank %d ibcast got %q", c.Rank(), buf)
		}
	})
}

func TestNonblockingCompletesOnlyAfterAllInitiate(t *testing.T) {
	gate := make(chan struct{})
	runRanks(t, 2, 2, func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Ibarrier()
			if req.Done() {
				t.Error("ibarrier done before peer initiated")
			}
			for i := 0; i < 3; i++ {
				if req.Done() { // polling must not complete it early
					t.Error("ibarrier done on a poll before peer initiated")
				}
			}
			close(gate)
			req.Wait()
		} else {
			<-gate // hold initiation until rank 0 has observed incompleteness
			c.p.Compute(1e-3)
			c.Ibarrier().Wait()
		}
	})
}

func TestIalltoallIallgather(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		me := byte(c.Rank())
		in := []byte{me, me, me, me}
		out := make([]byte, 4)
		c.ICollective(netmodel.Alltoall, 0, OpSum, in, out).Wait()
		for j := 0; j < 4; j++ {
			if int(out[j]) != j {
				t.Errorf("ialltoall got %v", out)
				break
			}
		}
		gout := make([]byte, 4)
		c.ICollective(netmodel.Allgather, 0, OpSum, []byte{me}, gout).Wait()
		for j := 0; j < 4; j++ {
			if int(gout[j]) != j {
				t.Errorf("iallgather got %v", gout)
				break
			}
		}
	})
}

func TestIreduce(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		out := make([]byte, 8)
		c.ICollective(netmodel.Reduce, 2, OpSum, F64Bytes([]float64{3}), out).Wait()
		if c.Rank() == 2 && BytesF64(out)[0] != 12 {
			t.Errorf("ireduce root got %v", BytesF64(out))
		}
	})
}

func TestCollectiveMismatchPanics(t *testing.T) {
	w := NewWorld(2, netmodel.New(netmodel.PerlmutterLike(), 2))
	// Rank 0 initiates a (non-blocking) barrier, creating slot 0 with kind
	// Barrier. Rank 1 then calling Bcast as its first collective on the same
	// communicator is an erroneous MPI program and must panic.
	w.WorldComm(0).Ibarrier()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched collectives on one comm should panic")
		}
	}()
	w.WorldComm(1).Collective(netmodel.Bcast, 0, OpSum, []byte{1}, nil)
}

func TestDrainAndInjectInflight(t *testing.T) {
	w := NewWorld(2, netmodel.New(netmodel.PerlmutterLike(), 2))
	c0 := w.WorldComm(0)
	c0.Send(1, 8, []byte("inflight"))
	msgs := w.SnapshotInflight(1)
	if len(msgs) != 1 || string(msgs[0].Data) != "inflight" {
		t.Fatalf("snapshot got %v", msgs)
	}
	// The snapshot is a copy: the live message stays deliverable, and only
	// receiving it empties the queue.
	buf := make([]byte, 16)
	if st := w.WorldComm(1).Recv(0, 8, buf); string(buf[:st.Count]) != "inflight" {
		t.Fatalf("recv after snapshot got %q", buf[:st.Count])
	}
	if got := w.SnapshotInflight(1); len(got) != 0 {
		t.Fatalf("snapshot after the receive got %v", got)
	}
	// Re-inject into a fresh world (the restart path).
	w2 := NewWorld(2, w.Model)
	w2.InjectDrained(1, msgs, 0)
	st := w2.WorldComm(1).Recv(0, 8, buf)
	if string(buf[:st.Count]) != "inflight" {
		t.Fatalf("restart recv got %q", buf[:st.Count])
	}
}

func TestPendingPosted(t *testing.T) {
	w := NewWorld(2, netmodel.New(netmodel.PerlmutterLike(), 2))
	c1 := w.WorldComm(1)
	c1.Irecv(0, 3, make([]byte, 4))
	if w.PendingPosted(1) != 1 {
		t.Fatal("posted recv not counted")
	}
}

func TestWaitUntilWake(t *testing.T) {
	w := NewWorld(1, netmodel.New(netmodel.PerlmutterLike(), 1))
	var flag bool
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		w.Proc(0).WaitUntil(func() bool {
			mu.Lock()
			defer mu.Unlock()
			return flag
		})
		close(done)
	}()
	mu.Lock()
	flag = true
	mu.Unlock()
	w.Wake(0)
	<-done // must not hang
}

func TestCountersAccumulate(t *testing.T) {
	w := runRanks(t, 2, 2, func(c *Comm) {
		collective(c, netmodel.Barrier, 0, OpSum, nil, 0)
		allreduce(c, OpSum, F64Bytes([]float64{1}))
		if c.Rank() == 0 {
			c.Send(1, 0, []byte{1})
		} else {
			c.Recv(0, 0, make([]byte, 1))
		}
	})
	ct := w.Proc(0).Ct
	if ct.CollBlocking != 2 {
		t.Fatalf("collective count %d", ct.CollBlocking)
	}
	if ct.P2PSends != 1 {
		t.Fatalf("send count %d", ct.P2PSends)
	}
	if w.Proc(1).Ct.P2PRecvs != 1 {
		t.Fatal("recv not counted")
	}
	if w.MaxTime() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestVirtualTimeDeterminism(t *testing.T) {
	run := func() float64 {
		w := runRanks(t, 8, 4, func(c *Comm) {
			for i := 0; i < 20; i++ {
				c.p.Compute(float64(c.Rank()) * 1e-6)
				allreduce(c, OpSum, F64Bytes([]float64{1}))
				if c.Rank() > 0 {
					c.Send(0, 1, []byte{0})
				} else {
					buf := make([]byte, 1)
					for p := 1; p < 8; p++ {
						c.Recv(p, 1, buf)
					}
				}
			}
		})
		return w.MaxTime()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual makespan not deterministic: %g vs %g", a, b)
	}
}

func TestAllreduceMinMaxLoc(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		// Each rank contributes (value, index=rank); values chosen so the
		// max is at rank 2 and the min at rank 1.
		vals := []float64{5, 1, 9, 5}
		pair := F64Bytes([]float64{vals[c.Rank()], float64(c.Rank())})
		mx := BytesF64(allreduce(c, OpMaxLoc, pair))
		if mx[0] != 9 || mx[1] != 2 {
			t.Errorf("maxloc got %v", mx)
		}
		mn := BytesF64(allreduce(c, OpMinLoc, pair))
		if mn[0] != 1 || mn[1] != 1 {
			t.Errorf("minloc got %v", mn)
		}
		// Tie-breaking: equal values resolve to the lowest rank.
		tie := F64Bytes([]float64{7, float64(c.Rank())})
		tb := BytesF64(allreduce(c, OpMaxLoc, tie))
		if tb[0] != 7 || tb[1] != 0 {
			t.Errorf("tie-break got %v", tb)
		}
	})
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpSum: "SUM", OpMax: "MAX", OpMin: "MIN", OpProd: "PROD",
		OpMaxLoc: "MAXLOC", OpMinLoc: "MINLOC", Op(77): "UNKNOWN",
	} {
		if op.String() != want {
			t.Errorf("%d: %s != %s", op, op.String(), want)
		}
	}
}

func TestEagerThresholdSendCost(t *testing.T) {
	w := NewWorld(256, netmodel.New(netmodel.PerlmutterLike(), 128))
	thr := w.Model.P.EagerThreshold
	// Small inter-node send: sender pays only the local eager copy.
	c0 := w.WorldComm(0)
	c0.Send(200, 1, make([]byte, 64))
	small := c0.p.Clk.Now()
	// Large inter-node send: sender pays network serialization.
	c1 := w.WorldComm(1)
	c1.Send(200, 1, make([]byte, thr*4))
	large := c1.p.Clk.Now()
	wantMin := float64(thr*4) / w.Model.P.BwInter
	if large < wantMin {
		t.Fatalf("large send cost %g below serialization floor %g", large, wantMin)
	}
	if small >= large {
		t.Fatalf("small send (%g) should be cheaper than large (%g)", small, large)
	}
}

// TestCollectiveWakesOncePerWaiter: the last rank to enter a synchronizing
// collective wakes the others once. Waking every sleeper on every arrival, as
// the slot did before it resolved itself, parks a rank up to n-1 times per
// instance: n(n-1)/2 wake-ups for nothing.
func TestCollectiveWakesOncePerWaiter(t *testing.T) {
	const n, rounds = 64, 5
	w := runRanks(t, n, 32, func(c *Comm) {
		for i := 0; i < rounds; i++ {
			got := BytesF64(allreduce(c, OpSum, F64Bytes([]float64{float64(c.Rank())})))[0]
			if got != n*(n-1)/2 {
				t.Errorf("rank %d round %d: sum %v", c.Rank(), i, got)
			}
		}
	})
	total := 0
	for r := 0; r < n; r++ {
		parks := w.Proc(r).collParks
		if parks > rounds {
			t.Errorf("rank %d slept %d times in %d collectives", r, parks, rounds)
		}
		total += parks
	}
	if total > rounds*(n-1) {
		t.Errorf("%d sleeps over %d instances of %d ranks: the last to arrive never sleeps", total, rounds, n)
	}
}
