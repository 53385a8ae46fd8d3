package rt

// Tests for the CkptPlan retention policy: KeepEpochs runs GC from the
// coordinator's background commit stage, so long periodic runs keep a
// bounded store — while a GC pass can never delete an epoch a concurrent
// in-flight commit is about to reference (GC runs inside the commit order,
// after the seal and before the next commit may start).

import (
	"io"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// TestLifecyclePolicyBoundsStore: a long low-churn periodic run with
// KeepEpochs must (a) complete with the same state as the unpoliced run,
// (b) report reclaimed bytes in the history, (c) leave a store that
// verifies clean and holds only a bounded number of epochs, and (d) leave a
// newest epoch that restarts digest-identical.
func TestLifecyclePolicyBoundsStore(t *testing.T) {
	const iters = 24
	golden, err := Run(testConfig(8, AlgoCC), func(rank int) App { return newFrostApp(rank, iters) })
	if err != nil {
		t.Fatal(err)
	}

	store := ckpt.NewMemStore()
	cfg := testConfig(8, AlgoCC)
	cfg.Checkpoint = &CkptPlan{
		AtStep: 4, Every: 1e-6, Mode: ckpt.ContinueAfterCapture,
		Store: store, Async: true, Incremental: true,
		PaddedBytesPerRank: 32 << 20,
		KeepEpochs:         1,
	}
	rep, err := Run(cfg, func(rank int) App { return newFrostApp(rank, iters) })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("policed run did not complete")
	}
	if rep.StateDigest != golden.StateDigest {
		t.Fatal("retention policy changed the computation")
	}
	if len(rep.CheckpointHistory) < 5 {
		t.Fatalf("only %d chained captures", len(rep.CheckpointHistory))
	}

	var reclaimed int64
	for i, st := range rep.CheckpointHistory {
		reclaimed += st.GCReclaimedBytes
		if st.GCDeletedEpochs > 0 && st.GCVT <= 0 {
			t.Fatalf("capture %d deleted epochs without a modeled delete cost: %+v", i, st)
		}
	}
	if reclaimed <= 0 {
		t.Fatal("KeepEpochs=1 never reclaimed a byte")
	}

	// The surviving store: bounded, clean, and restartable.
	epochs, err := store.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	// keep=1 of sealed epochs plus whatever they transitively reference:
	// the newest epoch and the ones holding the frozen ranks' shards, never
	// the whole chain (one epoch per capture).
	if len(epochs) >= len(rep.CheckpointHistory) {
		t.Fatalf("store holds %d epochs after %d captures — retention never bit", len(epochs), len(rep.CheckpointHistory))
	}
	if faults, err := ckpt.VerifyStore(store); err != nil || len(faults) != 0 {
		t.Fatalf("policed store does not verify: faults=%v err=%v", faults, err)
	}
	latest, err := ckpt.LatestEpoch(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d captures leave %d epochs: %v", len(rep.CheckpointHistory), len(epochs), epochs)
	rrep, err := RestartFromStore(testConfig(8, AlgoCC), store, latest, func(rank int) App { return newFrostApp(rank, iters) })
	if err != nil {
		t.Fatal(err)
	}
	if rrep.StateDigest != golden.StateDigest {
		t.Fatal("restart from the policed store diverged")
	}
}

// TestLifecycleGCNeverStrandsInFlightCommit: with background (async)
// commits, the epoch sealed by commit k is the diff parent of in-flight
// commit k+1. An aggressive keep=1 GC runs after every seal, racing the
// pipeline — every sealed epoch must still resolve its references (GC
// inside the commit order always retains the next commit's parent), and
// every restart must reproduce the golden state.
func TestLifecycleGCNeverStrandsInFlightCommit(t *testing.T) {
	const iters = 24
	golden, err := Run(testConfig(8, AlgoCC), func(rank int) App { return newFrostApp(rank, iters) })
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemStore()
	cfg := testConfig(8, AlgoCC)
	cfg.Checkpoint = &CkptPlan{
		AtStep: 4, Every: 1e-6, Mode: ckpt.ContinueAfterCapture,
		Store: store, Async: true, Incremental: true,
		KeepEpochs: 1, // GC races the commit pipeline
	}
	rep, err := Run(cfg, func(rank int) App { return newFrostApp(rank, iters) })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || len(rep.CheckpointHistory) < 5 {
		t.Fatalf("bad policed run: completed=%v captures=%d", rep.Completed, len(rep.CheckpointHistory))
	}
	if faults, err := ckpt.VerifyStore(store); err != nil || len(faults) != 0 {
		t.Fatalf("gc stranded a commit's parent: faults=%v err=%v", faults, err)
	}
	epochs, err := store.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range epochs {
		rrep, err := RestartFromStore(testConfig(8, AlgoCC), store, e, func(rank int) App { return newFrostApp(rank, iters) })
		if err != nil {
			t.Fatalf("restart from surviving epoch %d: %v", e, err)
		}
		if rrep.StateDigest != golden.StateDigest {
			t.Fatalf("restart from surviving epoch %d diverged", e)
		}
	}
}

// frostApp is a minimal low-churn workload for chain tests (the registered
// straggler proxy lives in internal/apps, which rt cannot import): ranks 0-1
// stay hot on their own sub-communicator while the cold majority does two
// steps and freezes, so periodic incremental captures record the cold
// shards as references.
type frostApp struct {
	hot    bool
	sub    int
	Target int
	Iter   int
	Sum    []byte
	State  []float64
	bufs   Buffers // "sum"
}

func newFrostApp(rank, iters int) *frostApp {
	a := &frostApp{hot: rank < 2, Target: 2, State: make([]float64, 128)}
	a.Sum = a.bufs.Add("sum", 8)
	if a.hot {
		a.Target = iters
	}
	for i := range a.State {
		a.State[i] = float64(rank) + float64(i)/128
	}
	return a
}

func (a *frostApp) Name() string { return "frost" }
func (a *frostApp) Setup(env *Env) error {
	color := 1
	if a.hot {
		color = 0
	}
	a.sub = env.Split(WorldVID, color, env.Rank())
	return nil
}
func (a *frostApp) Buffer(id string) []byte { return a.bufs.Get(id) }
func (a *frostApp) Step(env *Env) (bool, error) {
	if a.Iter >= a.Target {
		return false, nil
	}
	if a.hot {
		a.State[a.Iter%len(a.State)] += float64(a.Iter)
	}
	copy(a.Sum, mpi.F64Bytes([]float64{a.State[0]}))
	a.Iter++
	env.Allreduce(a.sub, mpi.OpSum, "sum")
	return a.Iter < a.Target, nil
}

// Snapshot lays out Iter and the one phase, 0, then State and the buffer.
func (a *frostApp) SnapshotTo(w io.Writer) error {
	return a.bufs.SnapshotTo(w, []uint64{uint64(a.Iter), 0}, a.State)
}
func (a *frostApp) Restore(data []byte) error {
	var h [2]uint64
	if err := a.bufs.Restore(a.Name(), data, h[:], 1, a.Target, a.State); err != nil {
		return err
	}
	a.Iter = int(h[0])
	return nil
}

// TestRestartReadAccounting: restarting a single self-contained capture
// charges the depth-1 full read, a chained store restart charges strictly
// more for the same payload once older epochs enter the read set, and
// Restart from an in-memory image charges no read at all.
func TestRestartReadAccounting(t *testing.T) {
	const iters = 40
	_, base := runToCompletion(t, testConfig(4, AlgoCC), iters)

	// One self-contained epoch: depth-1 read of the whole padded image.
	cfg := testConfig(4, AlgoCC)
	cfg.Checkpoint = &CkptPlan{
		AtVT: base.RuntimeVT / 2, Mode: ckpt.ExitAfterCapture, PaddedBytesPerRank: 32 << 20,
	}
	rep, err := Run(cfg, func(rank int) App { return newRingApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := RestartFromStore(testConfig(4, AlgoCC), rep.Store, rep.Checkpoint.Epoch, func(rank int) App { return newRingApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	m := netmodel.New(netmodel.PerlmutterLike(), 4)
	wantRead := m.RestartReadTime(rep.Image.TotalBytes(), 1) // before Restart takes the image
	unpriced, err := Restart(testConfig(4, AlgoCC), rep.Image, func(rank int) App { return newRingApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if unpriced.RestartReadVT != 0 {
		t.Fatalf("Restart from an in-memory image priced a read: %g", unpriced.RestartReadVT)
	}
	if rep2.RestartReadVT != wantRead {
		t.Fatalf("image RestartReadVT = %g, want %g", rep2.RestartReadVT, wantRead)
	}
	if rep2.StateDigest != base.StateDigest {
		t.Fatal("image restart diverged")
	}

	// Incremental chain on a low-churn job: restarting an epoch whose cold
	// shards reference parents must out-price a depth-1 read of the same
	// bytes.
	const frostIters = 24
	frostGolden, err := Run(testConfig(8, AlgoCC), func(rank int) App { return newFrostApp(rank, frostIters) })
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ckpt.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg = testConfig(8, AlgoCC)
	cfg.Checkpoint = &CkptPlan{
		AtStep: 4, Every: 1e-6, Mode: ckpt.ContinueAfterCapture,
		Store: fs, Incremental: true, PaddedBytesPerRank: 32 << 20,
	}
	if _, err := Run(cfg, func(rank int) App { return newFrostApp(rank, frostIters) }); err != nil {
		t.Fatal(err)
	}
	latest, err := ckpt.LatestEpoch(fs)
	if err != nil {
		t.Fatal(err)
	}
	man, err := fs.GetManifest(latest)
	if err != nil {
		t.Fatal(err)
	}
	reads := ckpt.ReadSetOf(man)
	if len(reads) < 2 {
		t.Fatalf("low-churn chain produced no cross-epoch references (%d epochs)", latest+1)
	}
	rep3, err := RestartFromStore(testConfig(8, AlgoCC), fs, latest, func(rank int) App { return newFrostApp(rank, frostIters) })
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range reads {
		total += r.Bytes
	}
	if flat := m.RestartReadTime(total, 2); rep3.RestartReadVT <= flat {
		t.Fatalf("chained restart read %g not above flat read %g", rep3.RestartReadVT, flat)
	}
	if rep3.StateDigest != frostGolden.StateDigest {
		t.Fatal("chained restart diverged")
	}
}
