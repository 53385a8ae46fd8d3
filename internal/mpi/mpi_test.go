package mpi

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

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

func TestWorldConstruction(t *testing.T) {
	w := NewWorld(8, netmodel.New(netmodel.PerlmutterLike(), 4))
	c := w.WorldComm(3)
	if c.Rank() != 3 || c.Size() != 8 {
		t.Fatalf("world comm wrong: rank %d size %d", c.Rank(), c.Size())
	}
	if c.ID() != worldCommID {
		t.Fatalf("world comm id %d", c.ID())
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
	if g.Size() != 3 || g.WorldRank(1) != 2 || g.RankOf(9) != 2 || g.RankOf(7) != -1 {
		t.Fatal("group accessors wrong")
	}
	if !g.Contains(5) || g.Contains(0) {
		t.Fatal("contains wrong")
	}
	s := g.SortedWorldRanks()
	if s[0] != 2 || s[1] != 5 || s[2] != 9 {
		t.Fatalf("sorted wrong: %v", s)
	}
	if !Similar(NewGroup([]int{1, 2, 3}), NewGroup([]int{3, 1, 2})) {
		t.Fatal("similar groups (reordered) must match")
	}
	if Similar(NewGroup([]int{1, 2}), NewGroup([]int{1, 3})) {
		t.Fatal("different groups must not be similar")
	}
	if Similar(NewGroup([]int{1}), NewGroup([]int{1, 2})) {
		t.Fatal("different sizes must not be similar")
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
			if c.Proc().Clk.Now() <= 0 {
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
			c.Proc().Compute(1e-3)
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

func TestIsendIrecvWaitall(t *testing.T) {
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
			c.Isend(p, 9, []byte{byte(me)})
		}
		Waitall(reqs)
		for p := 0; p < n; p++ {
			if p != me && int(bufs[p][0]) != p {
				t.Errorf("rank %d: from %d got %d", me, p, bufs[p][0])
			}
		}
	})
}

func TestIprobe(t *testing.T) {
	runRanks(t, 2, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 4, []byte("x"))
		case 1:
			// The message needs virtual transit time; advance past it. The
			// sender also needs real time to run, hence the sleep in the loop.
			c.Proc().Compute(1)
			var found bool
			var st Status
			for i := 0; i < 200 && !found; i++ {
				found, st = c.Iprobe(AnySource, 4)
				if !found {
					time.Sleep(time.Millisecond)
				}
			}
			if !found {
				t.Error("Iprobe never found the message")
			} else if st.Source != 0 || st.Count != 1 {
				t.Errorf("probe status %+v", st)
			}
			// Probing does not consume: a recv must still succeed.
			buf := make([]byte, 1)
			c.Recv(0, 4, buf)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := runRanks(t, 8, 4, func(c *Comm) {
		if c.Rank() == 3 {
			c.Proc().Compute(2.0) // straggler
		}
		c.Barrier()
		if c.Proc().Clk.Now() < 2.0 {
			t.Errorf("rank %d exited barrier at %g, before straggler entry", c.Rank(), c.Proc().Clk.Now())
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
		c.Bcast(2, buf)
		if string(buf) != "data" {
			t.Errorf("rank %d bcast got %q", c.Rank(), buf)
		}
	})
}

func TestBcastRootNotDelayedByStragglers(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		if c.Rank() != 0 {
			c.Proc().Compute(5.0)
		}
		buf := []byte{42}
		c.Bcast(0, buf)
		if c.Rank() == 0 && c.Proc().Clk.Now() > 1.0 {
			t.Errorf("bcast root waited for stragglers: %g", c.Proc().Clk.Now())
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	runRanks(t, 8, 4, func(c *Comm) {
		in := F64Bytes([]float64{float64(c.Rank()), 1})
		out := BytesF64(c.Allreduce(OpSum, in))
		if out[0] != 28 || out[1] != 8 { // 0+..+7=28
			t.Errorf("rank %d allreduce got %v", c.Rank(), out)
		}
	})
}

func TestAllreduceMaxMinProd(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		v := float64(c.Rank() + 1)
		if got := BytesF64(c.Allreduce(OpMax, F64Bytes([]float64{v})))[0]; got != 4 {
			t.Errorf("max got %v", got)
		}
		if got := BytesF64(c.Allreduce(OpMin, F64Bytes([]float64{v})))[0]; got != 1 {
			t.Errorf("min got %v", got)
		}
		if got := BytesF64(c.Allreduce(OpProd, F64Bytes([]float64{v})))[0]; got != 24 {
			t.Errorf("prod got %v", got)
		}
	})
}

func TestReduceAtRootOnly(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		res := c.Reduce(1, OpSum, F64Bytes([]float64{2}))
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
		res := c.Gather(0, []byte{me})
		if c.Rank() == 0 {
			if string(res) != "\x00\x01\x02\x03" {
				t.Errorf("gather got %v", res)
			}
		}
		all := c.Allgather([]byte{me * 2})
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
		res := c.Alltoall(data)
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
		res := c.Scatter(0, data)
		if len(res) != 1 || int(res[0]) != 10+c.Rank() {
			t.Errorf("rank %d scatter got %v", c.Rank(), res)
		}
	})
}

func TestScan(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		res := BytesF64(c.Scan(OpSum, F64Bytes([]float64{1})))
		if res[0] != float64(c.Rank()+1) {
			t.Errorf("rank %d scan got %v", c.Rank(), res)
		}
	})
}

func TestReduceScatter(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		// Each rank contributes [1,1,1,1]; each receives its block summed = 4.
		res := BytesF64(c.ReduceScatter(OpSum, F64Bytes([]float64{1, 1, 1, 1})))
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
		sum := BytesF64(sub.Allreduce(OpSum, F64Bytes([]float64{float64(c.Rank())})))
		want := 0.0
		for r := color; r < 8; r += 2 {
			want += float64(r)
		}
		if sum[0] != want {
			t.Errorf("split allreduce got %v want %v", sum[0], want)
		}
		// Same-color members share the comm ID; different colors don't.
		idb := make([]byte, 8)
		binary.LittleEndian.PutUint64(idb, sub.ID())
		ids := c.Allgather(idb)
		for r := 0; r < 8; r++ {
			got := binary.LittleEndian.Uint64(ids[r*8:])
			same := r%2 == color
			if same && got != sub.ID() {
				t.Errorf("member %d has different comm id", r)
			}
			if !same && got == sub.ID() {
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
		sub.Barrier()
	})
}

func TestCommDup(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		d := c.Dup()
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			t.Error("dup changed shape")
		}
		if d.ID() == c.ID() {
			t.Error("dup must have a fresh comm id")
		}
		d.Barrier()
	})
}

func TestDeterministicCommIDs(t *testing.T) {
	var id1, id2 uint64
	runRanks(t, 4, 4, func(c *Comm) {
		s := c.Split(c.Rank()%2, 0)
		if c.Rank() == 0 {
			id1 = s.ID()
		}
	})
	runRanks(t, 4, 4, func(c *Comm) {
		s := c.Split(c.Rank()%2, 0)
		if c.Rank() == 0 {
			id2 = s.ID()
		}
	})
	if id1 != id2 || id1 == 0 {
		t.Fatalf("comm ids not deterministic across runs: %d vs %d", id1, id2)
	}
}

func TestNonblockingAllreduce(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		out := make([]byte, 8)
		req := c.Iallreduce(OpSum, F64Bytes([]float64{1}), out)
		c.Proc().Compute(1e-3) // overlap
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
		req := c.Ibcast(0, buf)
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
				req.Test() // must not deadlock or complete spuriously early
			}
			close(gate)
			req.Wait()
		} else {
			<-gate // hold initiation until rank 0 has observed incompleteness
			c.Proc().Compute(1e-3)
			c.Ibarrier().Wait()
		}
	})
}

func TestIbarrierWaitPolling(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		if c.Rank() == 2 {
			c.Proc().Compute(1e-3)
		}
		req := c.Ibarrier()
		start := c.Proc().Clk.Now()
		polls := req.WaitPolling()
		if polls < 1 {
			t.Errorf("poll count %d", polls)
		}
		if c.Rank() != 2 && c.Proc().Clk.Now()-start < 0.9e-3 {
			t.Errorf("rank %d polling wait too short: %g", c.Rank(), c.Proc().Clk.Now()-start)
		}
	})
}

func TestIalltoallIallgather(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		me := byte(c.Rank())
		in := []byte{me, me, me, me}
		out := make([]byte, 4)
		c.Ialltoall(in, out).Wait()
		for j := 0; j < 4; j++ {
			if int(out[j]) != j {
				t.Errorf("ialltoall got %v", out)
				break
			}
		}
		gout := make([]byte, 4)
		c.Iallgather([]byte{me}, gout).Wait()
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
		c.Ireduce(2, OpSum, F64Bytes([]float64{3}), out).Wait()
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
	w.WorldComm(1).Bcast(0, []byte{1})
}

func TestDrainAndInjectInflight(t *testing.T) {
	w := NewWorld(2, netmodel.New(netmodel.PerlmutterLike(), 2))
	c0 := w.WorldComm(0)
	c0.Send(1, 8, []byte("inflight"))
	msgs := w.DrainInflight(1)
	if len(msgs) != 1 || string(msgs[0].Data) != "inflight" {
		t.Fatalf("drain got %v", msgs)
	}
	if got := w.DrainInflight(1); len(got) != 0 {
		t.Fatal("second drain should be empty")
	}
	// Re-inject into a fresh world (the restart path).
	w2 := NewWorld(2, w.Model)
	w2.InjectDrained(1, msgs, 0)
	buf := make([]byte, 16)
	st := w2.WorldComm(1).Recv(0, 8, buf)
	if string(buf[:st.Count]) != "inflight" {
		t.Fatalf("restart recv got %q", buf[:st.Count])
	}
}

func TestCancelPostedAndPendingPosted(t *testing.T) {
	w := NewWorld(2, netmodel.New(netmodel.PerlmutterLike(), 2))
	c1 := w.WorldComm(1)
	c1.Irecv(0, 3, make([]byte, 4))
	if w.PendingPosted(1) != 1 {
		t.Fatal("posted recv not counted")
	}
	if n := w.CancelPosted(1); n != 1 {
		t.Fatalf("cancelled %d", n)
	}
	if w.PendingPosted(1) != 0 {
		t.Fatal("cancel left receives behind")
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
		c.Barrier()
		c.Allreduce(OpSum, F64Bytes([]float64{1}))
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
				c.Proc().Compute(float64(c.Rank()) * 1e-6)
				c.Allreduce(OpSum, F64Bytes([]float64{1}))
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
		mx := BytesF64(c.Allreduce(OpMaxLoc, pair))
		if mx[0] != 9 || mx[1] != 2 {
			t.Errorf("maxloc got %v", mx)
		}
		mn := BytesF64(c.Allreduce(OpMinLoc, pair))
		if mn[0] != 1 || mn[1] != 1 {
			t.Errorf("minloc got %v", mn)
		}
		// Tie-breaking: equal values resolve to the lowest rank.
		tie := F64Bytes([]float64{7, float64(c.Rank())})
		tb := BytesF64(c.Allreduce(OpMaxLoc, tie))
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
	small := c0.Proc().Clk.Now()
	// Large inter-node send: sender pays network serialization.
	c1 := w.WorldComm(1)
	c1.Send(200, 1, make([]byte, thr*4))
	large := c1.Proc().Clk.Now()
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
			got := BytesF64(c.Allreduce(OpSum, F64Bytes([]float64{float64(c.Rank())})))[0]
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
