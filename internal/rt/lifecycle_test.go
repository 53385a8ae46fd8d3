package rt

// Tests for the CkptPlan retention policy: KeepEpochs/CompactEvery run GC
// and chain compaction from the coordinator's background commit stage, so
// long periodic runs keep a bounded store and a depth-1 restart read —
// while a GC pass can never delete an epoch a concurrent in-flight commit
// is about to reference (the lifecycle pass runs inside the commit ticket,
// after the seal and before the next commit may start).

import (
	"bytes"
	"encoding/gob"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// TestLifecyclePolicyBoundsStore: a long low-churn periodic run with
// KeepEpochs+CompactEvery must (a) complete with the same state as the
// unpoliced run, (b) report compactions and reclaimed bytes in the history,
// (c) leave a store that verifies clean and holds only a bounded number of
// epochs, and (d) restart digest-identical from the latest survivor at a
// depth-1 read.
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
		CompactEvery:       2,
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

	var compactions int
	var reclaimed int64
	for i, st := range rep.CheckpointHistory {
		if st.CompactedEpoch >= 0 {
			compactions++
			if st.CompactedEpoch <= st.Epoch {
				t.Fatalf("capture %d compacted into epoch %d, not after its own epoch %d",
					i, st.CompactedEpoch, st.Epoch)
			}
			if st.CompactVT <= 0 {
				t.Fatalf("capture %d's compaction has no modeled cost: %+v", i, st)
			}
		}
		reclaimed += st.GCReclaimedBytes
		if st.GCDeletedEpochs > 0 && st.GCVT <= 0 {
			t.Fatalf("capture %d deleted epochs without a modeled delete cost: %+v", i, st)
		}
	}
	if compactions == 0 {
		t.Fatal("CompactEvery=2 never compacted")
	}
	if reclaimed <= 0 {
		t.Fatal("KeepEpochs=1 never reclaimed a byte")
	}

	// The surviving store: bounded, clean, and restartable at depth 1.
	epochs, err := store.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	// keep=1 of sealed epochs plus whatever they transitively reference;
	// with compaction interleaved the tail stays small, never the whole
	// chain (one epoch per capture plus one per compaction).
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
// inside the commit ticket always retains the next commit's parent), and
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
		KeepEpochs: 1, // no compaction: GC alone races the commit pipeline
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
}

func newFrostApp(rank, iters int) *frostApp {
	a := &frostApp{hot: rank < 2, Target: 2, Sum: make([]byte, 8), State: make([]float64, 128)}
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
func (a *frostApp) Buffer(id string) []byte {
	if id == "sum" {
		return a.Sum
	}
	return nil
}
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
func (a *frostApp) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Target, Iter int
		Sum          []byte
		State        []float64
	}{a.Target, a.Iter, a.Sum, a.State})
	return buf.Bytes(), err
}
func (a *frostApp) Restore(data []byte) error {
	var st struct {
		Target, Iter int
		Sum          []byte
		State        []float64
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	a.Target, a.Iter = st.Target, st.Iter
	copy(a.Sum, st.Sum)
	copy(a.State, st.State)
	return nil
}

// TestRestartReadAccounting: a plain image restart charges the depth-1 full
// read, and a chained store restart charges strictly more for the same
// payload once older epochs enter the read set.
func TestRestartReadAccounting(t *testing.T) {
	const iters = 40
	_, base := runToCompletion(t, testConfig(4, AlgoCC), iters)

	// Image restart: depth-1 read of the whole padded image.
	cfg := testConfig(4, AlgoCC)
	cfg.Checkpoint = &CkptPlan{
		AtVT: base.RuntimeVT / 2, Mode: ckpt.ExitAfterCapture, PaddedBytesPerRank: 32 << 20,
	}
	rep, err := Run(cfg, func(rank int) App { return newRingApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Restart(testConfig(4, AlgoCC), rep.Image, func(rank int) App { return newRingApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	m := netmodel.New(netmodel.PerlmutterLike(), 4)
	if want := m.RestartReadTime(rep.Image.TotalBytes(), 1); rep2.RestartReadVT != want {
		t.Fatalf("image RestartReadVT = %g, want %g", rep2.RestartReadVT, want)
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
