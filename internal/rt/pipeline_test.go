package rt

// Tests for the sharded image pipeline's runtime-facing pieces: per-checkpoint
// stat deltas under chained checkpointing, cross-geometry restart, padded
// image accounting, benchmark-collective restart descriptors, and the request
// table's step-boundary hygiene.

import (
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// TestPeriodicStatsPerCheckpointDeltas: with chained (periodic) checkpoints,
// checkpoint k's drain counters must cover checkpoint k's drain only. The
// strong form: each capture's target updates balance (every message sent was
// consumed by that same drain), and the per-checkpoint deltas sum back to
// the run's cumulative totals — cumulative reporting (the old bug) fails
// both: entry k would contain entries 1..k-1 again.
func TestPeriodicStatsPerCheckpointDeltas(t *testing.T) {
	const ranks, iters = 6, 200
	cfg := testConfig(ranks, AlgoCC)
	base, err := Run(cfg, func(rank int) App { return newChainApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = &CkptPlan{
		AtVT:  base.RuntimeVT / 6,
		Every: base.RuntimeVT / 6,
		Mode:  ckpt.ContinueAfterCapture,
	}
	rep, err := Run(cfg, func(rank int) App { return newChainApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CheckpointHistory) < 3 {
		t.Fatalf("need >= 3 chained checkpoints to see double-counting, got %d", len(rep.CheckpointHistory))
	}
	var sumSent, sumRecv, sumTests int64
	for i, st := range rep.CheckpointHistory {
		if st.TargetUpdatesSent != st.TargetUpdatesRecv {
			t.Errorf("checkpoint %d: %d target updates sent but %d consumed",
				i, st.TargetUpdatesSent, st.TargetUpdatesRecv)
		}
		if st.TargetUpdatesSent < 0 || st.DrainTests < 0 {
			t.Errorf("checkpoint %d: negative drain counters: %+v", i, st)
		}
		sumSent += st.TargetUpdatesSent
		sumRecv += st.TargetUpdatesRecv
		sumTests += st.DrainTests
	}
	// The deltas partition the cumulative counters exactly.
	if sumSent != rep.Counters.TargetUpdatesSent || sumRecv != rep.Counters.TargetUpdatesRecv {
		t.Errorf("per-checkpoint deltas sum to %d/%d target updates, cumulative counters say %d/%d",
			sumSent, sumRecv, rep.Counters.TargetUpdatesSent, rep.Counters.TargetUpdatesRecv)
	}
	if sumTests != rep.Counters.DrainTests {
		t.Errorf("per-checkpoint drain tests sum to %d, cumulative counter says %d",
			sumTests, rep.Counters.DrainTests)
	}
	// The skewed chain must actually have exercised the drain machinery, or
	// the assertions above are vacuous.
	if rep.Counters.TargetUpdatesSent == 0 {
		t.Fatal("no target updates in the whole run; the test exercises nothing")
	}
}

// TestCrossGeometryRestart: a checkpoint captured at one PPN restarts onto a
// different ranks-per-node placement (different node count, same ranks) and
// reaches the same final state — the allocation-chaining scenario.
func TestCrossGeometryRestart(t *testing.T) {
	const iters = 30
	want, _ := runToCompletion(t, testConfig(8, AlgoCC), iters)

	rep, _ := checkpointRun(t, AlgoCC, ckpt.ExitAfterCapture, iters, 1e-4)
	if rep.Image == nil {
		t.Fatal("no image captured")
	}
	for _, ppn := range []int{1, 2, 8} {
		// Each restart takes its image, so each decodes its own copy.
		img := cloneImage(t, rep.Image)
		if img.PPN != 4 {
			t.Fatalf("image captured at ppn %d, test assumes 4", img.PPN)
		}
		cfg := Config{Ranks: 8, PPN: ppn, Params: netmodel.PerlmutterLike(), Algorithm: AlgoCC}
		restarted := make([]*ringApp, cfg.Ranks)
		rep2, err := Restart(cfg, img, func(rank int) App {
			a := newRingApp(iters)
			restarted[rank] = a
			return a
		})
		if err != nil {
			t.Fatalf("restart at ppn %d: %v", ppn, err)
		}
		if !rep2.Completed {
			t.Fatalf("restart at ppn %d did not complete", ppn)
		}
		if restarted[0].Acc != want {
			t.Fatalf("restart at ppn %d diverged: %v vs %v", ppn, restarted[0].Acc, want)
		}
		if rep2.PPN != ppn {
			t.Fatalf("restarted report claims ppn %d, want %d", rep2.PPN, ppn)
		}
	}
}

// TestBenchCollectiveSizeZeroRestart: a size-0 benchmark collective captured
// at its wrapper entry must re-issue down the sized path on restart. Before
// CollDesc.Bench, VirtSize == 0 made it indistinguishable from a named-buffer
// collective and the restart panicked on the empty buffer name.
func TestBenchCollectiveSizeZeroRestart(t *testing.T) {
	factory := func(int) App { return &benchApp{Iters: 12} }
	cfg := testConfig(4, AlgoCC)
	golden, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if golden.StateDigest == "" {
		t.Fatal("golden run has no digest")
	}

	cfg.Checkpoint = &CkptPlan{AtStep: 5, Mode: ckpt.ExitAfterCapture}
	rep, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image == nil {
		t.Fatal("no image captured")
	}
	if rep.Checkpoint.ParkedPreColl == 0 {
		t.Fatal("no rank parked pre-collective; the regression path is not exercised")
	}
	sawBench := false
	for _, ri := range rep.Image.Images {
		if c := ri.Desc.Coll; c != nil {
			if !c.Bench {
				t.Fatalf("rank %d bench collective captured without the Bench flag: %+v", ri.Rank, c)
			}
			if c.VirtSize != 0 {
				t.Fatalf("rank %d captured size %d, want 0", ri.Rank, c.VirtSize)
			}
			sawBench = true
		}
	}
	if !sawBench {
		t.Fatal("no pending collective descriptor in the image")
	}

	rep2, err := Restart(testConfig(4, AlgoCC), rep.Image, factory)
	if err != nil {
		t.Fatalf("size-0 bench restart: %v", err)
	}
	if rep2.StateDigest != golden.StateDigest {
		t.Fatalf("size-0 bench restart diverged: %.12s != %.12s", rep2.StateDigest, golden.StateDigest)
	}
}

// TestPaddedBytesConsistentAcrossHistory: with PaddedBytesPerRank set, the
// standalone Checkpoint stats and every CheckpointHistory entry must agree
// on the padded size and its write time — previously only the standalone
// copy was patched, leaving history entries unpadded.
func TestPaddedBytesConsistentAcrossHistory(t *testing.T) {
	const iters = 60
	const padded = int64(1 << 20)
	_, base := runToCompletion(t, testConfig(8, AlgoCC), iters)

	cfg := testConfig(8, AlgoCC)
	period := base.RuntimeVT / 4
	cfg.Checkpoint = &CkptPlan{
		AtVT: period, Every: period,
		Mode:               ckpt.ContinueAfterCapture,
		PaddedBytesPerRank: padded,
	}
	rep, err := Run(cfg, func(rank int) App { return newRingApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CheckpointHistory) < 2 {
		t.Fatalf("expected several checkpoints, got %d", len(rep.CheckpointHistory))
	}
	wantBytes := padded * int64(cfg.Ranks)
	for i, st := range rep.CheckpointHistory {
		if st.ImageBytes != wantBytes {
			t.Errorf("history entry %d: ImageBytes %d, want padded %d", i, st.ImageBytes, wantBytes)
		}
		if st.WriteVT <= 0 {
			t.Errorf("history entry %d: no write time", i)
		}
	}
	last := rep.CheckpointHistory[len(rep.CheckpointHistory)-1]
	if rep.Checkpoint.ImageBytes != last.ImageBytes || rep.Checkpoint.WriteVT != last.WriteVT {
		t.Errorf("standalone stats (%d bytes, %g s) diverge from their history entry (%d bytes, %g s)",
			rep.Checkpoint.ImageBytes, rep.Checkpoint.WriteVT, last.ImageBytes, last.WriteVT)
	}
	if rep.Image.PaddedBytesPerRank != padded {
		t.Errorf("image not stamped with the padded size: %d", rep.Image.PaddedBytesPerRank)
	}
}

// TestPaddedWritePricePinned: a padded periodic plan that names no store
// prices every capture as one write of PaddedBytesPerRank × Ranks, bit for
// bit, synchronous and overlapped alike. Every paper-figure run is padded,
// so this is the equality that keeps the figures still whichever store the
// captures seal into.
func TestPaddedWritePricePinned(t *testing.T) {
	const iters = 60
	const padded = int64(3 << 20)
	_, base := runToCompletion(t, testConfig(8, AlgoCC), iters)
	for _, async := range []bool{false, true} {
		cfg := testConfig(8, AlgoCC)
		period := base.RuntimeVT / 4
		cfg.Checkpoint = &CkptPlan{
			AtVT: period, Every: period, Mode: ckpt.ContinueAfterCapture,
			Async: async, PaddedBytesPerRank: padded,
		}
		rep, err := Run(cfg, func(rank int) App { return newRingApp(iters) })
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.CheckpointHistory) < 2 {
			t.Fatalf("async=%v: expected several checkpoints, got %d", async, len(rep.CheckpointHistory))
		}
		m := netmodel.New(cfg.Params, cfg.PPN)
		want := m.WriteCost(padded*int64(cfg.Ranks), nodesOf(cfg), async)
		for i, st := range rep.CheckpointHistory {
			if st.WriteVT != want.Total || st.StallVT != want.Stall || st.OverlapVT != want.Overlap {
				t.Errorf("async=%v entry %d: write/stall/overlap %v/%v/%v, want %v/%v/%v", async, i,
					st.WriteVT, st.StallVT, st.OverlapVT, want.Total, want.Stall, want.Overlap)
			}
		}
	}
}

// benchApp is an OSU-style loop of size-0 benchmark Bcasts (the apps package
// cannot be imported here — it depends on rt).
type benchApp struct {
	Iters, Iter int
	bufs        Buffers // none: size-only collectives
}

func (a *benchApp) Name() string            { return "bench-size0" }
func (a *benchApp) Setup(env *Env) error    { return nil }
func (a *benchApp) Buffer(id string) []byte { return nil }
func (a *benchApp) Step(env *Env) (bool, error) {
	a.Iter++
	env.BenchCollective(WorldVID, netmodel.Bcast, 0, 0)
	return a.Iter < a.Iters, nil
}

// Snapshot lays out Iter and the one phase, 0.
func (a *benchApp) Snapshot() ([]byte, error) {
	return a.bufs.Snapshot([]uint64{uint64(a.Iter), 0}), nil
}
func (a *benchApp) Restore(data []byte) error {
	var h [2]uint64
	if err := a.bufs.Restore(a.Name(), data, h[:], 1, a.Iters); err != nil {
		return err
	}
	a.Iter = int(h[0])
	return nil
}

// leakBuf is a minimal App supplying one buffer for direct env tests.
type leakBuf struct{ ringApp }

func (a *leakBuf) Buffer(id string) []byte {
	if id == "b" {
		return make([]byte, 8)[:8]
	}
	return nil
}

// TestStepBoundaryPrunesCompletedRecvs: a receive completed by a matching
// send but never passed to WaitAll must leave the request table after one
// grace boundary (so a cross-step WaitAll still finds it); incomplete
// receives and non-blocking collective requests must survive pruning.
func TestStepBoundaryPrunesCompletedRecvs(t *testing.T) {
	w := mpi.NewWorld(2, netmodel.New(netmodel.PerlmutterLike(), 2))
	coord, _ := ckpt.NewCoordinator(w, nil) // no plan: cannot fail
	algo := ckpt.NewNative()
	coord.SetAlgorithm(algo)
	app := &leakBuf{}
	env := newEnv(w.Proc(0), algo.NewRank(w.Proc(0), w.WorldComm(0)), coord, app, false)

	// The peer's message is already queued, so the Irecv completes at post.
	w.WorldComm(1).Send(0, 42, []byte("abcdefgh"))
	doneID := env.Irecv(WorldVID, 1, 42, "b", 0, 8)
	// A receive that can never complete stays pending.
	pendingID := env.Irecv(WorldVID, 1, 99, "b", 0, 8)

	if len(env.reqs) != 2 {
		t.Fatalf("expected 2 outstanding requests, have %d", len(env.reqs))
	}
	// First boundary: grace period — a next-step WaitAll must still find it.
	env.stepBoundary()
	if !hasReq(env, doneID) {
		t.Fatal("completed receive pruned at its first boundary (cross-step WaitAll would miss it)")
	}
	// Second boundary: still unwaited — now it is abandoned and collected.
	env.stepBoundary()
	if len(env.reqs) != 1 {
		t.Fatalf("abandoned receive not pruned: %d requests remain", len(env.reqs))
	}
	if !hasReq(env, pendingID) {
		t.Fatal("incomplete receive was pruned")
	}
	// Repeated boundaries with fire-and-forget receives stay bounded: each
	// entry lives at most two boundaries.
	for i := 0; i < 50; i++ {
		w.WorldComm(1).Send(0, 42, []byte("abcdefgh"))
		env.Irecv(WorldVID, 1, 42, "b", 0, 8)
		env.stepBoundary()
	}
	if len(env.reqs) > 3 {
		t.Fatalf("request table leaked: %d entries after 50 fire-and-forget receives", len(env.reqs))
	}
	// A receive waited one step after posting keeps its Wait semantics: the
	// entry is intact, so WaitAll collects it (and the Waits counter moves).
	w.WorldComm(1).Send(0, 43, []byte("abcdefgh"))
	lateID := env.Irecv(WorldVID, 1, 43, "b", 0, 8)
	env.stepBoundary()
	waitsBefore := w.Proc(0).Ct.Waits
	env.WaitAll(lateID)
	if w.Proc(0).Ct.Waits != waitsBefore+1 {
		t.Fatal("cross-step WaitAll skipped the completed receive")
	}
}

func hasReq(env *Env, id int) bool {
	for _, en := range env.reqs {
		if en.id == id {
			return true
		}
	}
	return false
}

// TestStreamBudgetPlumbedAndReported: a store-committed run must report a
// positive streaming-encode high-water mark per capture, bounded by the
// plan's budget — the end-to-end form of the bounded-memory contract — and
// the budget must not change what gets committed (digest-identical restart).
func TestStreamBudgetPlumbedAndReported(t *testing.T) {
	const iters = 200
	budget := int64(4) << 20
	cfg := testConfig(6, AlgoCC)
	base, err := Run(cfg, func(rank int) App { return newChainApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemStore()
	cfg.Checkpoint = &CkptPlan{
		AtVT:  base.RuntimeVT / 5,
		Every: base.RuntimeVT / 5,
		Mode:  ckpt.ContinueAfterCapture,
		Store: store, Async: true, Incremental: true,
		StreamBudgetBytes: budget,
	}
	rep, err := Run(cfg, func(rank int) App { return newChainApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CheckpointHistory) < 2 {
		t.Fatalf("only %d chained captures", len(rep.CheckpointHistory))
	}
	for i, st := range rep.CheckpointHistory {
		// All-reused epochs stream nothing and legitimately peak at zero.
		if st.PeakEncodeBytes <= 0 && st.FreshShards > 0 {
			t.Errorf("capture %d reported no streaming-encode peak: %+v", i, st)
		}
		if st.PeakEncodeBytes > budget {
			t.Errorf("capture %d peak %d exceeds the %d budget", i, st.PeakEncodeBytes, budget)
		}
	}
	rep2, err := RestartFromStore(testConfig(6, AlgoCC), store, -1, func(rank int) App { return newChainApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if rep2.StateDigest != base.StateDigest {
		t.Fatalf("budgeted streaming commit diverged: %.12s != %.12s", rep2.StateDigest, base.StateDigest)
	}
	if rep2.RestartReadVT <= 0 {
		t.Fatalf("store restart priced no read time")
	}
}
