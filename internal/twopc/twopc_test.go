package twopc

import (
	"sync"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/netmodel"
)

func newTest2PC(n int) (*TwoPC, []ckpt.Protocol, *mpi.World) {
	w := mpi.NewWorld(n, netmodel.New(netmodel.PerlmutterLike(), n))
	coord, _ := ckpt.NewCoordinator(w, nil) // no plan: cannot fail
	tp := New(coord)
	protos := make([]ckpt.Protocol, n)
	for r := 0; r < n; r++ {
		protos[r] = tp.NewRank(w.Proc(r), w.WorldComm(r))
	}
	return tp, protos, w
}

func worldInfo(w *mpi.World, rank int) *ckpt.CommInfo {
	c := w.WorldComm(rank)
	return &ckpt.CommInfo{Comm: c, Members: c.Group().SortedWorldRanks(), VID: 0}
}

func TestMetadata(t *testing.T) {
	tp, protos, _ := newTest2PC(2)
	if tp.Name() != "2pc" || protos[0].Name() != "2pc" {
		t.Fatal("wrong name")
	}
	if !tp.Quiesced() {
		t.Fatal("2PC quiesces whenever all ranks are parked")
	}
	if err := tp.VerifySafeState(); err != nil {
		t.Fatal(err)
	}
	tp.OnCheckpointRequest() // must be a no-op, not panic
}

func TestCollectiveInsertsBarrier(t *testing.T) {
	_, protos, w := newTest2PC(2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ci := worldInfo(w, rank)
			protos[rank].RegisterComm(ci)
			ran := false
			out := protos[rank].Collective(ci, nil, func() { ci.Comm.CollectiveSized(netmodel.Barrier, 0, 0) })
			_ = ran
			if out != ckpt.Proceed {
				t.Errorf("rank %d: outcome %v", rank, out)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if w.Proc(r).Ct.Barriers2PC != 1 {
			t.Fatalf("rank %d: %d barriers inserted, want 1", r, w.Proc(r).Ct.Barriers2PC)
		}
		// One wrapped collective => one inserted Ibarrier => two collective
		// initiations total (the barrier plus the real one).
		if got := w.Proc(r).Ct.CollCalls(); got != 2 {
			t.Fatalf("rank %d: %d collective calls, want 2", r, got)
		}
	}
}

func TestBarrierCostsSynchronization(t *testing.T) {
	// The inserted barrier must force the wrapped collective to start only
	// after the slowest rank has arrived — the source of 2PC's overhead.
	_, protos, w := newTest2PC(2)
	var wg sync.WaitGroup
	exits := make([]float64, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ci := worldInfo(w, rank)
			protos[rank].RegisterComm(ci)
			if rank == 1 {
				w.Proc(rank).Compute(1.0) // straggler
			}
			// A Bcast whose root (rank 0) would natively exit immediately.
			buf := []byte{1}
			protos[rank].Collective(ci, nil, func() { ci.Comm.Collective(netmodel.Bcast, 0, mpi.OpSum, buf, buf) })
			exits[rank] = w.Proc(rank).Clk.Now()
		}(r)
	}
	wg.Wait()
	if exits[0] < 1.0 {
		t.Fatalf("root exited at %g; the inserted barrier must hold it past the straggler's 1.0", exits[0])
	}
}

func TestInitiatePanics(t *testing.T) {
	_, protos, w := newTest2PC(1)
	defer func() {
		if recover() == nil {
			t.Fatal("non-blocking initiation accepted")
		}
	}()
	protos[0].Initiate(worldInfo(w, 0), func() *mpi.Request { return nil })
}

func TestSnapshotRestoreEmpty(t *testing.T) {
	_, protos, _ := newTest2PC(1)
	b, err := protos[0].Snapshot()
	if err != nil || b != nil {
		t.Fatal("2PC snapshot should be empty")
	}
	if err := protos[0].Restore(nil); err != nil {
		t.Fatal(err)
	}
}

func TestHoldAtWaitWithoutPending(t *testing.T) {
	_, protos, _ := newTest2PC(1)
	if out := protos[0].HoldAtWait(nil, func() bool { return true }); out != ckpt.Proceed {
		t.Fatalf("outcome %v", out)
	}
	if out := protos[0].AtBoundary(&ckpt.Descriptor{Kind: ckpt.ParkBoundary}); out != ckpt.Proceed {
		t.Fatalf("boundary outcome %v", out)
	}
}

// TestBarrierPollsOnTheGrid: a rank that waits at the inserted barrier is
// charged the test loop it would have run, ⌊waited/PollInterval⌋ + 1 polls
// in Ct.Tests, and leaves the loop on the poll grid: start + polls ×
// PollInterval. waited runs from the rank's Ibarrier (start) to the
// barrier's completion; the same job with PollInterval 0, which charges no
// loop, gives that completion.
func TestBarrierPollsOnTheGrid(t *testing.T) {
	// run has rank 1 compute 1 ms before the wrapped collective and reports
	// rank 0's clock and poll count when its collective begins.
	run := func(interval float64) (after float64, tests int64, p netmodel.Params) {
		_, protos, w := newTest2PC(2)
		w.Model.P.PollInterval = interval
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ci := worldInfo(w, rank)
				protos[rank].RegisterComm(ci)
				proc := w.Proc(rank)
				if rank == 1 {
					proc.Compute(1e-3)
				}
				protos[rank].Collective(ci, nil, func() {
					if rank == 0 {
						after, tests = proc.Clk.Now(), proc.Ct.Tests
					}
					ci.Comm.CollectiveSized(netmodel.Barrier, 0, 0)
				})
			}(r)
		}
		wg.Wait()
		return after, tests, w.Model.P
	}
	completion, tests, _ := run(0)
	if tests != 0 {
		t.Fatalf("no poll interval, yet %d polls charged", tests)
	}
	after, tests, p := run(netmodel.PerlmutterLike().PollInterval)
	start := p.WrapperCost + p.CallOverhead // rank 0's clock once its Ibarrier is issued
	waited := completion - start
	if waited < 1e-3 {
		t.Fatalf("rank 0 waited %g s at the barrier, want at least the straggler's 1 ms", waited)
	}
	if want := int64(waited/p.PollInterval) + 1; tests != want {
		t.Fatalf("charged %d polls for a %g s wait, want %d", tests, waited, want)
	}
	if want := start + float64(tests)*p.PollInterval; after != want {
		t.Fatalf("rank 0 left the test loop at %.15g, want the poll grid's %.15g", after, want)
	}
}
