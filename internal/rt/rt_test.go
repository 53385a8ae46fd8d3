package rt

import (
	"fmt"
	"math"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// ringApp is a small BSP test program exercising p2p and collectives:
// each iteration (two steps) it (a) sends a value around a ring and
// receives one (with receives that can straddle checkpoints), and (b)
// allreduces an accumulator. A sub-communicator allreduce runs every third
// iteration to exercise multiple groups (and thus multiple ggids).
type ringApp struct {
	Iters int
	Phase int // 0: ring exchange, 1: allreduce, 2: subgroup allreduce
	Iter  int
	Acc   float64
	Ring  []byte  // named buffer "ring": received payload
	Sum   []byte  // named buffer "sum": allreduce payload
	bufs  Buffers // "ring" and "sum"
	sub   int     // sub-communicator vid (even/odd split); not serialized
}

func newRingApp(iters int) *ringApp {
	a := &ringApp{Iters: iters}
	a.Ring, a.Sum = a.bufs.Add("ring", 8), a.bufs.Add("sum", 8)
	return a
}

func (a *ringApp) Name() string { return "ring-test" }

func (a *ringApp) Setup(env *Env) error {
	a.sub = env.Split(WorldVID, env.Rank()%2, env.Rank())
	return nil
}

func (a *ringApp) Buffer(id string) []byte { return a.bufs.Get(id) }

func (a *ringApp) Step(env *Env) (bool, error) {
	n := env.Size()
	me := env.Rank()
	// Per the App contract, the phase counter advances BEFORE each blocking
	// batch; results are consumed by the next phase.
	switch a.Phase {
	case 0: // ring exchange
		env.Compute(1e-6)
		left := (me - 1 + n) % n
		right := (me + 1) % n
		env.Irecv(WorldVID, left, 7, "ring", 0, 8)
		env.Send(WorldVID, right, 7, mpi.F64Bytes([]float64{float64(me + a.Iter)}))
		a.Phase = 1
		env.WaitAll()
	case 1: // consume ring result, contribute to allreduce
		recv := mpi.BytesF64(a.Ring)[0]
		a.Acc += recv
		copy(a.Sum, mpi.F64Bytes([]float64{a.Acc}))
		a.Phase = 2
		env.Allreduce(WorldVID, mpi.OpSum, "sum")
	case 2: // consume allreduce result
		a.Acc = mpi.BytesF64(a.Sum)[0] / float64(n) // keep values bounded
		if a.Iter%3 == 2 {
			copy(a.Sum, mpi.F64Bytes([]float64{a.Acc + 1}))
			a.Phase = 3
			env.Allreduce(a.sub, mpi.OpMax, "sum")
		} else {
			a.Phase = 0
			a.Iter++
		}
	case 3: // consume subgroup allreduce result
		a.Acc = mpi.BytesF64(a.Sum)[0]
		a.Phase = 0
		a.Iter++
	}
	return a.Iter < a.Iters, nil
}

func (a *ringApp) Snapshot() ([]byte, error) {
	return a.bufs.Snapshot([]uint64{uint64(a.Iter), uint64(a.Phase), math.Float64bits(a.Acc)}), nil
}

func (a *ringApp) Restore(data []byte) error {
	var h [3]uint64
	if err := a.bufs.Restore(a.Name(), data, h[:], 4, a.Iters); err != nil {
		return err
	}
	a.Iter, a.Phase, a.Acc = int(h[0]), int(h[1]), math.Float64frombits(h[2])
	return nil
}

// cloneImage is a deep copy of img, through its packed encoding: Restart
// takes the image it is given, so a test that restarts from one image twice
// hands each restart its own.
func cloneImage(t *testing.T, img *ckpt.JobImage) *ckpt.JobImage {
	t.Helper()
	blob, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ckpt.DecodeJobImage(blob)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func testConfig(ranks int, algo string) Config {
	return Config{Ranks: ranks, PPN: 4, Params: netmodel.PerlmutterLike(), Algorithm: algo}
}

// finalAccs runs the app to completion and returns rank 0's accumulator.
func runToCompletion(t *testing.T, cfg Config, iters int) (float64, *Report) {
	t.Helper()
	// factory is called from rank goroutines concurrently; preallocate.
	apps := make([]*ringApp, cfg.Ranks)
	rep, err := Run(cfg, func(rank int) App {
		a := newRingApp(iters)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !rep.Completed {
		t.Fatal("run did not complete")
	}
	return apps[0].Acc, rep
}

func TestNativeRunCompletes(t *testing.T) {
	acc, rep := runToCompletion(t, testConfig(8, AlgoNative), 9)
	if math.IsNaN(acc) {
		t.Fatal("accumulator is NaN")
	}
	if rep.RuntimeVT <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if rep.Counters.CollBlocking == 0 || rep.Counters.P2PSends == 0 {
		t.Fatalf("counters empty: %+v", rep.Counters)
	}
}

func TestAlgorithmsAgreeOnResults(t *testing.T) {
	// The checkpointing algorithm must not change application results.
	accN, repN := runToCompletion(t, testConfig(8, AlgoNative), 9)
	accC, repC := runToCompletion(t, testConfig(8, AlgoCC), 9)
	accP, repP := runToCompletion(t, testConfig(8, Algo2PC), 9)
	if accN != accC || accN != accP {
		t.Fatalf("results differ: native %v, cc %v, 2pc %v", accN, accC, accP)
	}
	// CC adds only wrapper costs; 2PC inserts barriers: native <= cc <= 2pc.
	if repC.RuntimeVT < repN.RuntimeVT {
		t.Fatalf("cc (%g) ran faster than native (%g)", repC.RuntimeVT, repN.RuntimeVT)
	}
	if repP.RuntimeVT < repC.RuntimeVT {
		t.Fatalf("2pc (%g) ran faster than cc (%g)", repP.RuntimeVT, repC.RuntimeVT)
	}
	if repP.Counters.Barriers2PC == 0 {
		t.Fatal("2pc inserted no barriers")
	}
	if repC.Counters.Barriers2PC != 0 {
		t.Fatal("cc inserted barriers")
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	cfg := testConfig(2, "bogus")
	if _, err := Run(cfg, func(int) App { return newRingApp(1) }); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestNativeCannotCheckpoint(t *testing.T) {
	cfg := testConfig(2, AlgoNative)
	cfg.Checkpoint = &CkptPlan{AtVT: 0}
	if _, err := Run(cfg, func(int) App { return newRingApp(1) }); err == nil {
		t.Fatal("native checkpoint accepted")
	}
}

func checkpointRun(t *testing.T, algo string, mode ckpt.Mode, iters int, atVT float64) (*Report, []*ringApp) {
	t.Helper()
	cfg := testConfig(8, algo)
	cfg.Checkpoint = &CkptPlan{AtVT: atVT, Mode: mode}
	apps := make([]*ringApp, cfg.Ranks)
	rep, err := Run(cfg, func(rank int) App {
		a := newRingApp(iters)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatalf("checkpoint run (%s): %v", algo, err)
	}
	return rep, apps
}

func TestCCCheckpointContinue(t *testing.T) {
	// Checkpoint mid-run in continue mode: the job must finish with the same
	// result as an uninterrupted run, and the checkpoint must be recorded.
	want, _ := runToCompletion(t, testConfig(8, AlgoCC), 30)
	rep, apps := checkpointRun(t, AlgoCC, ckpt.ContinueAfterCapture, 30, 1e-4)
	if !rep.Completed {
		t.Fatal("continue-mode run did not complete")
	}
	if rep.Checkpoint == nil || rep.Image == nil {
		t.Fatal("no checkpoint captured")
	}
	if apps[0].Acc != want {
		t.Fatalf("result changed by checkpoint: %v vs %v", apps[0].Acc, want)
	}
	if rep.Checkpoint.ImageBytes <= 0 {
		t.Fatal("empty checkpoint image")
	}
	if rep.Checkpoint.CaptureVT < rep.Checkpoint.RequestVT {
		t.Fatal("capture before request")
	}
	if rep.Checkpoint.WriteVT <= 0 {
		t.Fatal("no storage time modeled")
	}
	// The job was charged the storage write time.
	if rep.RuntimeVT < rep.Checkpoint.CaptureVT+rep.Checkpoint.WriteVT {
		t.Fatalf("checkpoint I/O not charged: runtime %g < %g",
			rep.RuntimeVT, rep.Checkpoint.CaptureVT+rep.Checkpoint.WriteVT)
	}
}

func Test2PCCheckpointContinue(t *testing.T) {
	want, _ := runToCompletion(t, testConfig(8, Algo2PC), 30)
	rep, apps := checkpointRun(t, Algo2PC, ckpt.ContinueAfterCapture, 30, 1e-4)
	if !rep.Completed || rep.Checkpoint == nil {
		t.Fatal("2pc continue checkpoint failed")
	}
	if apps[0].Acc != want {
		t.Fatalf("result changed by checkpoint: %v vs %v", apps[0].Acc, want)
	}
}

func restartAndFinish(t *testing.T, algo string, iters int, img *ckpt.JobImage) []*ringApp {
	t.Helper()
	cfg := testConfig(8, algo)
	cfg.Checkpoint = &CkptPlan{AtVT: math.Inf(1), Mode: ckpt.ExitAfterCapture}
	apps := make([]*ringApp, cfg.Ranks)
	rep, err := Restart(cfg, img, func(rank int) App {
		a := newRingApp(iters)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatalf("restart (%s): %v", algo, err)
	}
	if !rep.Completed {
		t.Fatal("restarted job did not complete")
	}
	return apps
}

func TestCCCheckpointExitAndRestart(t *testing.T) {
	// The paper's end-to-end workflow: run, checkpoint, exit, restart from
	// images in a fresh lower half, finish — with results identical to an
	// uninterrupted run.
	const iters = 30
	want, _ := runToCompletion(t, testConfig(8, AlgoCC), iters)

	rep, _ := checkpointRun(t, AlgoCC, ckpt.ExitAfterCapture, iters, 1e-4)
	if rep.Completed {
		t.Fatal("exit-mode run should have terminated at the checkpoint")
	}
	if rep.Image == nil {
		t.Fatal("no image captured")
	}

	// Round-trip the image through serialization, as a real restart would.
	blob, err := rep.Image.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	img, err := ckpt.DecodeJobImage(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	apps := restartAndFinish(t, AlgoCC, iters, img)
	if apps[0].Acc != want {
		t.Fatalf("restart diverged: %v vs %v", apps[0].Acc, want)
	}
	for r, a := range apps {
		if a.Iter != iters {
			t.Fatalf("rank %d stopped at iteration %d", r, a.Iter)
		}
	}
}

func Test2PCCheckpointExitAndRestart(t *testing.T) {
	const iters = 30
	want, _ := runToCompletion(t, testConfig(8, Algo2PC), iters)
	rep, _ := checkpointRun(t, Algo2PC, ckpt.ExitAfterCapture, iters, 1e-4)
	if rep.Image == nil {
		t.Fatal("no image captured")
	}
	apps := restartAndFinish(t, Algo2PC, iters, rep.Image)
	if apps[0].Acc != want {
		t.Fatalf("restart diverged: %v vs %v", apps[0].Acc, want)
	}
}

func TestCheckpointChaining(t *testing.T) {
	// Run -> ckpt exit -> restart -> ckpt exit -> restart -> finish, the
	// paper's resource-allocation chaining scenario.
	const iters = 40
	want, _ := runToCompletion(t, testConfig(8, AlgoCC), iters)

	rep, _ := checkpointRun(t, AlgoCC, ckpt.ExitAfterCapture, iters, 5e-5)
	if rep.Image == nil {
		t.Fatal("first checkpoint missing")
	}

	cfg := testConfig(8, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtVT: rep.Image.CaptureVT + 5e-5, Mode: ckpt.ExitAfterCapture}
	apps := make([]*ringApp, cfg.Ranks)
	rep2, err := Restart(cfg, rep.Image, func(rank int) App {
		a := newRingApp(iters)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatalf("second leg: %v", err)
	}
	if rep2.Image == nil {
		t.Fatal("second checkpoint missing")
	}
	if rep2.Completed {
		t.Fatal("second leg should have exited at its checkpoint")
	}

	apps = restartAndFinish(t, AlgoCC, iters, rep2.Image)
	if apps[0].Acc != want {
		t.Fatalf("chained restart diverged: %v vs %v", apps[0].Acc, want)
	}
}

func TestRestartRejectsMismatchedConfig(t *testing.T) {
	rep, _ := checkpointRun(t, AlgoCC, ckpt.ExitAfterCapture, 20, 1e-4)
	cfg := testConfig(16, AlgoCC) // wrong rank count
	if _, err := Restart(cfg, cloneImage(t, rep.Image), func(int) App { return newRingApp(20) }); err == nil {
		t.Fatal("mismatched rank count accepted")
	}
	cfg = testConfig(8, Algo2PC) // wrong algorithm
	if _, err := Restart(cfg, rep.Image, func(int) App { return newRingApp(20) }); err == nil {
		t.Fatal("mismatched algorithm accepted")
	}
}

func TestSafeStateInvariantsAtCapture(t *testing.T) {
	// Capture must record per-rank park kinds and the CC drain must leave
	// all sequence numbers at targets (checked internally by
	// VerifySafeState; an error would fail the run).
	rep, _ := checkpointRun(t, AlgoCC, ckpt.ExitAfterCapture, 30, 1e-4)
	for _, ri := range rep.Image.Images {
		switch ri.Desc.Kind {
		case ckpt.ParkPreCollective, ckpt.ParkInBarrier, ckpt.ParkInWait,
			ckpt.ParkBoundary, ckpt.ParkDone:
		default:
			t.Fatalf("rank %d has invalid park kind %v", ri.Rank, ri.Desc.Kind)
		}
		if ri.Desc.Kind == ckpt.ParkPreCollective && ri.Desc.Coll == nil {
			t.Fatalf("rank %d parked pre-collective without descriptor", ri.Rank)
		}
	}
}

// nbApp exercises non-blocking collectives under CC, including the §4.3.2
// drain: initiations and waits are in different steps, so a checkpoint can
// land between them.
type nbApp struct {
	Iters int
	Phase int
	Iter  int
	Acc   float64
	In    []byte
	Out   []byte
	bufs  Buffers // "in" and "out"
}

func newNBApp(iters int) *nbApp {
	a := &nbApp{Iters: iters}
	a.In, a.Out = a.bufs.Add("in", 8), a.bufs.Add("out", 8)
	return a
}

func (a *nbApp) Name() string            { return "nb-test" }
func (a *nbApp) Setup(env *Env) error    { return nil }
func (a *nbApp) Buffer(id string) []byte { return a.bufs.Get(id) }

func (a *nbApp) Step(env *Env) (bool, error) {
	switch a.Phase {
	case 0: // initiate (non-blocking: no park possible inside this step)
		copy(a.In, mpi.F64Bytes([]float64{a.Acc + 1}))
		env.Iallreduce(WorldVID, mpi.OpSum, "in", "out")
		env.Compute(2e-6) // overlap window
		a.Phase = 1
	case 1: // complete
		a.Phase = 2
		env.WaitAll()
	case 2: // consume
		a.Acc = mpi.BytesF64(a.Out)[0] / float64(env.Size())
		a.Phase = 0
		a.Iter++
	}
	return a.Iter < a.Iters, nil
}

func (a *nbApp) Snapshot() ([]byte, error) {
	return a.bufs.Snapshot([]uint64{uint64(a.Iter), uint64(a.Phase), math.Float64bits(a.Acc)}), nil
}

func (a *nbApp) Restore(data []byte) error {
	var h [3]uint64
	if err := a.bufs.Restore(a.Name(), data, h[:], 3, a.Iters); err != nil {
		return err
	}
	a.Iter, a.Phase, a.Acc = int(h[0]), int(h[1]), math.Float64frombits(h[2])
	return nil
}

func TestNonblockingUnderCC(t *testing.T) {
	cfg := testConfig(8, AlgoCC)
	apps := make([]*nbApp, cfg.Ranks)
	rep, err := Run(cfg, func(rank int) App {
		a := newNBApp(10)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.CollNonblocking == 0 {
		t.Fatal("no non-blocking collectives recorded")
	}
	want := apps[0].Acc

	// With a checkpoint in the middle (exit + restart).
	cfg.Checkpoint = &CkptPlan{AtVT: 2e-5, Mode: ckpt.ExitAfterCapture}
	rep2, err := Run(cfg, func(rank int) App { return newNBApp(10) })
	if err != nil {
		t.Fatalf("nb checkpoint: %v", err)
	}
	if rep2.Image == nil {
		t.Fatal("no image")
	}
	cfg2 := testConfig(8, AlgoCC)
	apps2 := make([]*nbApp, cfg2.Ranks)
	if _, err := Restart(cfg2, rep2.Image, func(rank int) App {
		a := newNBApp(10)
		apps2[rank] = a
		return a
	}); err != nil {
		t.Fatalf("nb restart: %v", err)
	}
	if apps2[0].Acc != want {
		t.Fatalf("nb restart diverged: %v vs %v", apps2[0].Acc, want)
	}
}

func TestNonblockingRejectedUnder2PC(t *testing.T) {
	cfg := testConfig(4, Algo2PC)
	if _, err := Run(cfg, func(rank int) App { return newNBApp(2) }); err == nil {
		t.Fatal("2pc accepted a non-blocking collective")
	}
}

// contractApp violates the one-blocking-batch-per-step contract.
type contractApp struct{ ringApp }

func (a *contractApp) Step(env *Env) (bool, error) {
	env.Barrier(WorldVID)
	env.Barrier(WorldVID) // second blocking batch: contract violation
	return false, nil
}

func TestContractEnforcedWhenCheckpointing(t *testing.T) {
	cfg := testConfig(4, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtVT: math.Inf(1), Mode: ckpt.ContinueAfterCapture}
	_, err := Run(cfg, func(rank int) App {
		c := &contractApp{}
		c.ringApp = *newRingApp(1)
		return c
	})
	if err == nil {
		t.Fatal("contract violation not detected")
	}
}

func TestDeterministicRuntimes(t *testing.T) {
	_, rep1 := runToCompletion(t, testConfig(8, AlgoCC), 12)
	_, rep2 := runToCompletion(t, testConfig(8, AlgoCC), 12)
	if rep1.RuntimeVT != rep2.RuntimeVT {
		t.Fatalf("runtime not deterministic: %g vs %g", rep1.RuntimeVT, rep2.RuntimeVT)
	}
}

func TestReportRates(t *testing.T) {
	_, rep := runToCompletion(t, testConfig(8, AlgoCC), 12)
	if rep.Rates.CollPerSec <= 0 || rep.Rates.P2PPerSec <= 0 {
		t.Fatalf("rates not computed: %+v", rep.Rates)
	}
}

func TestSplitOutsideSetupPanics(t *testing.T) {
	if _, err := Run(testConfig(2, AlgoNative), func(int) App { return &splitLateApp{} }); err == nil {
		t.Fatal("late Split accepted")
	}
}

type splitLateApp struct{ ringApp }

func (a *splitLateApp) Setup(env *Env) error { return nil }
func (a *splitLateApp) Step(env *Env) (bool, error) {
	env.Split(WorldVID, 0, 0)
	return false, nil
}

func (a *splitLateApp) Buffer(string) []byte { return nil }

var _ = fmt.Sprintf // keep fmt imported if unused in some builds
