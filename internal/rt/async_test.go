package rt

import (
	"io"
	"math"
	"strings"
	"testing"

	"mana/internal/ckpt"
)

// TestAsyncCheckpointOverlap: with the staged pipeline in overlapped mode
// the job must resume after paying only the storage open latency — the
// transfer time turns into OverlapVT — and still compute the same answer.
// One padded mid-run capture each way keeps the comparison deterministic
// (the padded transfer dominates, and single captures cannot drift in
// count the way chained ones may under host scheduling).
func TestAsyncCheckpointOverlap(t *testing.T) {
	const iters = 60
	const padded = 64 << 20 // per-rank padded image: the transfer term to hide
	want, base := runToCompletion(t, testConfig(8, AlgoCC), iters)

	run := func(async bool) (*Report, float64) {
		cfg := testConfig(8, AlgoCC)
		cfg.Checkpoint = &CkptPlan{
			AtVT: base.RuntimeVT / 2, Mode: ckpt.ContinueAfterCapture,
			Async: async, PaddedBytesPerRank: padded,
		}
		apps := make([]*ringApp, cfg.Ranks)
		rep, err := Run(cfg, func(rank int) App {
			a := newRingApp(iters)
			apps[rank] = a
			return a
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed {
			t.Fatal("checkpointed run did not complete")
		}
		if len(rep.CheckpointHistory) != 1 {
			t.Fatalf("expected exactly one capture, got %d", len(rep.CheckpointHistory))
		}
		return rep, apps[0].Acc
	}

	syncRep, syncAcc := run(false)
	asyncRep, asyncAcc := run(true)
	if syncAcc != want || asyncAcc != want {
		t.Fatalf("checkpointing changed the result: sync %v async %v want %v", syncAcc, asyncAcc, want)
	}

	syncSt := syncRep.CheckpointHistory[0]
	if syncSt.OverlapVT != 0 {
		t.Fatalf("synchronous capture reported overlap: %+v", syncSt)
	}
	if math.Abs(syncSt.StallVT-syncSt.WriteVT) > 1e-12 {
		t.Fatalf("synchronous capture must stall the full write: %+v", syncSt)
	}
	asyncSt := asyncRep.CheckpointHistory[0]
	if asyncSt.OverlapVT <= 0 {
		t.Fatalf("async capture has no overlap: %+v", asyncSt)
	}
	if math.Abs(asyncSt.StallVT+asyncSt.OverlapVT-asyncSt.WriteVT) > 1e-9 {
		t.Fatalf("stall+overlap != write time: %+v", asyncSt)
	}
	if asyncSt.StallVT >= syncSt.StallVT {
		t.Fatalf("async stall %g not below sync stall %g", asyncSt.StallVT, syncSt.StallVT)
	}
	// The stall savings must show up in the makespan: the padded transfer
	// stalls the synchronous job but hides behind the asynchronous one.
	if asyncRep.RuntimeVT >= syncRep.RuntimeVT {
		t.Fatalf("async runtime %g not below sync runtime %g", asyncRep.RuntimeVT, syncRep.RuntimeVT)
	}
}

// TestStoreCommitAndRestart: periodic captures committed to a FileStore must
// seal one epoch per capture, and restarting from every sealed epoch must
// reach the uninterrupted run's digest.
func TestStoreCommitAndRestart(t *testing.T) {
	const iters = 40
	_, base := runToCompletion(t, testConfig(6, AlgoCC), iters)
	golden := base.StateDigest
	if golden == "" {
		t.Fatal("golden run produced no digest")
	}

	fs, err := ckpt.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(6, AlgoCC)
	period := base.RuntimeVT / 4
	cfg.Checkpoint = &CkptPlan{
		AtVT: period, Every: period, Mode: ckpt.ContinueAfterCapture,
		Store: fs, Async: true,
	}
	rep, err := Run(cfg, func(rank int) App { return newRingApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.StateDigest != golden {
		t.Fatalf("store-committed run diverged: %.12s != %.12s", rep.StateDigest, golden)
	}

	epochs, err := fs.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != len(rep.CheckpointHistory) {
		t.Fatalf("%d sealed epochs for %d captures", len(epochs), len(rep.CheckpointHistory))
	}
	for i, st := range rep.CheckpointHistory {
		if st.Epoch != epochs[i] {
			t.Fatalf("capture %d committed as epoch %d, store lists %d", i, st.Epoch, epochs[i])
		}
		if st.FreshShards != cfg.Ranks || st.ReusedShards != 0 {
			t.Fatalf("non-incremental capture reused shards: %+v", st)
		}
	}
	if faults, err := ckpt.VerifyStore(fs); err != nil || len(faults) != 0 {
		t.Fatalf("store did not verify: faults=%v err=%v", faults, err)
	}
	for _, e := range epochs {
		rep2, err := RestartFromStore(testConfig(6, AlgoCC), fs, e, func(rank int) App { return newRingApp(iters) })
		if err != nil {
			t.Fatalf("restart from epoch %d: %v", e, err)
		}
		if rep2.StateDigest != golden {
			t.Fatalf("restart from epoch %d diverged: %.12s != %.12s", e, rep2.StateDigest, golden)
		}
	}
	// Latest-epoch selection (epoch < 0).
	if rep2, err := RestartFromStore(testConfig(6, AlgoCC), fs, -1, func(rank int) App { return newRingApp(iters) }); err != nil {
		t.Fatal(err)
	} else if rep2.StateDigest != golden {
		t.Fatalf("restart from latest epoch diverged")
	}
}

// TestStoreChainResumes: committing into a store that already holds sealed
// epochs must CONTINUE the chain (numbering after the newest epoch, the
// incremental differ seeded with its manifest), never clobber epoch 0 —
// the restart-then-continue pattern where a new allocation keeps
// checkpointing into the same store.
func TestStoreChainResumes(t *testing.T) {
	const iters = 40
	_, base := runToCompletion(t, testConfig(4, AlgoCC), iters)
	golden := base.StateDigest

	fs, err := ckpt.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runInto := func() *Report {
		cfg := testConfig(4, AlgoCC)
		cfg.Checkpoint = &CkptPlan{
			AtVT: base.RuntimeVT / 3, Mode: ckpt.ContinueAfterCapture,
			Store: fs, Incremental: true,
		}
		rep, err := Run(cfg, func(rank int) App { return newRingApp(iters) })
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := runInto()
	second := runInto() // a separate job resuming the same store
	if len(first.CheckpointHistory) == 0 || len(second.CheckpointHistory) == 0 {
		t.Fatal("runs captured nothing")
	}
	firstLast := first.CheckpointHistory[len(first.CheckpointHistory)-1].Epoch
	if got := second.CheckpointHistory[0].Epoch; got != firstLast+1 {
		t.Fatalf("second job committed epoch %d, want the chain to continue at %d", got, firstLast+1)
	}
	// The first job's epochs must remain intact and restartable.
	if faults, err := ckpt.VerifyStore(fs); err != nil || len(faults) != 0 {
		t.Fatalf("resumed chain did not verify: faults=%v err=%v", faults, err)
	}
	epochs, err := fs.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != len(first.CheckpointHistory)+len(second.CheckpointHistory) {
		t.Fatalf("%d sealed epochs after two jobs with %d+%d captures",
			len(epochs), len(first.CheckpointHistory), len(second.CheckpointHistory))
	}
	for _, e := range []int{epochs[0], epochs[len(epochs)-1]} {
		rep, err := RestartFromStore(testConfig(4, AlgoCC), fs, e, func(rank int) App { return newRingApp(iters) })
		if err != nil {
			t.Fatalf("restart from epoch %d: %v", e, err)
		}
		if rep.StateDigest != golden {
			t.Fatalf("restart from epoch %d diverged", e)
		}
	}
}

// TestFailedCaptureNotSealed: a capture that errors (snapshot fault) must
// not seal a durable store epoch — a fresh process cannot see the run's
// error and would restore the broken image as if it were healthy — and,
// having written nothing, is charged nothing.
func TestFailedCaptureNotSealed(t *testing.T) {
	fs, err := ckpt.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtStep: 3, Mode: ckpt.ExitAfterCapture, Store: fs}
	rep, err := Run(cfg, func(rank int) App {
		a := App(newRingApp(20))
		if rank == 1 {
			a = &failingSnapshotApp{App: a}
		}
		return a
	})
	if err == nil {
		t.Fatal("expected a run error from the failing snapshot")
	}
	epochs, err := fs.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 0 {
		t.Fatalf("failed capture sealed %d epoch(s)", len(epochs))
	}
	if rep == nil || len(rep.CheckpointHistory) != 1 {
		t.Fatalf("failed capture left no single history entry: %+v", rep)
	}
	if st := rep.CheckpointHistory[0]; st.Epoch != -1 || st.WriteVT != 0 || st.StallVT != 0 || st.OverlapVT != 0 {
		t.Fatalf("failed capture was given an epoch or charged a write: epoch %d, write/stall/overlap %v/%v/%v",
			st.Epoch, st.WriteVT, st.StallVT, st.OverlapVT)
	}
}

// TestSnapshotFailureSurfaces: a rank whose snapshot hook fails mid-capture
// must turn into a run error naming the rank, not a wedge or a silent
// half-written checkpoint.
func TestSnapshotFailureSurfaces(t *testing.T) {
	cfg := testConfig(4, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtStep: 3, Mode: ckpt.ExitAfterCapture}
	_, err := Run(cfg, func(rank int) App {
		a := App(newRingApp(20))
		if rank == 2 {
			a = &failingSnapshotApp{App: a}
		}
		return a
	})
	if err == nil {
		t.Fatal("expected a run error from the failing snapshot")
	}
	if !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("error does not attribute the snapshot failure: %v", err)
	}
}

// failingSnapshotApp delegates everything but fails every SnapshotTo call.
type failingSnapshotApp struct{ App }

func (f *failingSnapshotApp) SnapshotTo(io.Writer) error {
	return errSnapshotFault
}

var errSnapshotFault = &snapshotFaultError{}

type snapshotFaultError struct{}

func (*snapshotFaultError) Error() string { return "injected snapshot fault" }
