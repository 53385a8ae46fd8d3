package rt

import (
	"fmt"
	"io"
	"math"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

// fuzzApp executes a pseudo-random (but seed-deterministic) communication
// program: each step draws from a mix of world collectives, sub-communicator
// collectives, ring point-to-point exchanges, non-blocking collectives, and
// compute, with all state folded into a running checksum. Used to check, on
// hundreds of schedules, that (a) the checkpointing algorithms never change
// results, and (b) a checkpoint-restart at an arbitrary time reproduces the
// uninterrupted run exactly.
type fuzzApp struct {
	Iters int
	Seed  uint64

	Iter   int
	Phase  int
	PendOp int // which op the current iteration drew
	Check  float64
	Buf    []byte  // named buffer "buf"
	Ring   []byte  // named buffer "ring"
	Out    []byte  // named buffer "out"
	bufs   Buffers // "buf", "ring" and "out"
	sub    int
	useNB  bool
}

func newFuzzApp(iters int, seed uint64, useNB bool) *fuzzApp {
	a := &fuzzApp{Iters: iters, Seed: seed, useNB: useNB}
	a.Buf, a.Ring, a.Out = a.bufs.Add("buf", 16), a.bufs.Add("ring", 8), a.bufs.Add("out", 16)
	return a
}

func (a *fuzzApp) Name() string { return "fuzz" }

func (a *fuzzApp) Setup(env *Env) error {
	a.sub = env.Split(WorldVID, env.Rank()%2, env.Rank())
	return nil
}

func (a *fuzzApp) Buffer(id string) []byte { return a.bufs.Get(id) }

// next is a deterministic per-iteration op selector shared by all ranks
// (they must agree on the op sequence: MPI programs are SPMD).
func (a *fuzzApp) next() uint64 {
	x := a.Seed + uint64(a.Iter)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (a *fuzzApp) fold(v float64) {
	a.Check = math.Mod(a.Check*1.000003+v, 1e9)
}

func (a *fuzzApp) Step(env *Env) (bool, error) {
	me := env.Rank()
	n := env.Size()
	switch a.Phase {
	case 0: // choose and launch this iteration's operation
		a.PendOp = int(a.next() % 6)
		if !a.useNB && a.PendOp == 5 {
			a.PendOp = 0
		}
		env.Compute(float64(me%3+1) * 1e-7) // mild skew
		copy(a.Buf, mpi.F64Bytes([]float64{a.Check, float64(me)}))
		switch a.PendOp {
		case 0: // world allreduce
			a.Phase = 1
			env.Allreduce(WorldVID, mpi.OpSum, "buf")
		case 1: // world bcast from a rotating root
			root := a.Iter % n
			a.Phase = 1
			env.Bcast(WorldVID, root, "buf")
		case 2: // subgroup allreduce (max)
			a.Phase = 1
			env.Allreduce(a.sub, mpi.OpMax, "buf")
		case 3: // ring exchange
			left := (me - 1 + n) % n
			right := (me + 1) % n
			env.Irecv(WorldVID, left, 40, "ring", 0, 8)
			env.Send(WorldVID, right, 40, mpi.F64Bytes([]float64{a.Check + float64(me)}))
			a.Phase = 1
			env.WaitAll()
		case 4: // barrier
			a.Phase = 1
			env.Barrier(WorldVID)
		case 5: // non-blocking allreduce, waited next step
			env.Iallreduce(WorldVID, mpi.OpSum, "buf", "out")
			a.Phase = 2
		}
	case 1: // consume blocking result
		switch a.PendOp {
		case 0, 1, 2:
			a.fold(mpi.BytesF64(a.Buf)[0])
		case 3:
			a.fold(mpi.BytesF64(a.Ring)[0])
		case 4:
			a.fold(1)
		}
		a.Iter++
		a.Phase = 0
	case 2: // complete the non-blocking op
		a.Phase = 3
		env.WaitAll()
	case 3:
		a.fold(mpi.BytesF64(a.Out)[0])
		a.Iter++
		a.Phase = 0
	}
	return a.Iter < a.Iters, nil
}

func (a *fuzzApp) SnapshotTo(w io.Writer) error {
	return a.bufs.SnapshotTo(w, []uint64{uint64(a.Iter), uint64(a.Phase), uint64(a.PendOp), math.Float64bits(a.Check)})
}

func (a *fuzzApp) Restore(data []byte) error {
	var h [4]uint64
	if err := a.bufs.Restore(a.Name(), data, h[:], 4, a.Iters); err != nil {
		return err
	}
	a.Iter, a.Phase, a.PendOp, a.Check = int(h[0]), int(h[1]), int(h[2]), math.Float64frombits(h[3])
	return nil
}

// runFuzz executes one schedule and returns the per-rank checksums.
func runFuzz(t *testing.T, cfg Config, iters int, seed uint64, useNB bool,
	img *ckpt.JobImage) ([]float64, *Report) {
	t.Helper()
	apps := make([]*fuzzApp, cfg.Ranks)
	factory := func(rank int) App {
		a := newFuzzApp(iters, seed, useNB)
		apps[rank] = a
		return a
	}
	var rep *Report
	var err error
	if img == nil {
		rep, err = Run(cfg, factory)
	} else {
		rep, err = Restart(cfg, img, factory)
	}
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sums := make([]float64, cfg.Ranks)
	for r, a := range apps {
		sums[r] = a.Check
	}
	return sums, rep
}

// TestPropertyAlgorithmsPreserveResults: across random schedules, native,
// 2PC, and CC must produce bit-identical application results.
func TestPropertyAlgorithmsPreserveResults(t *testing.T) {
	const ranks, iters = 6, 25
	for seed := uint64(1); seed <= 12; seed++ {
		native, _ := runFuzz(t, testConfig(ranks, AlgoNative), iters, seed, false, nil)
		twoPC, _ := runFuzz(t, testConfig(ranks, Algo2PC), iters, seed, false, nil)
		cc, _ := runFuzz(t, testConfig(ranks, AlgoCC), iters, seed, true, nil)
		ccBlk, _ := runFuzz(t, testConfig(ranks, AlgoCC), iters, seed, false, nil)
		for r := 0; r < ranks; r++ {
			if native[r] != twoPC[r] || native[r] != ccBlk[r] {
				t.Fatalf("seed %d rank %d: results differ: native %v, 2pc %v, cc %v",
					seed, r, native[r], twoPC[r], ccBlk[r])
			}
		}
		_ = cc // non-blocking variant runs a different op mix; checked below
	}
}

// TestPropertyCheckpointRestartTransparent: for random schedules and random
// checkpoint times, exit-and-restart must reproduce the uninterrupted
// checksums exactly — the definition of transparent checkpointing.
func TestPropertyCheckpointRestartTransparent(t *testing.T) {
	const ranks, iters = 6, 30
	for _, algo := range []string{AlgoCC, Algo2PC} {
		useNB := algo == AlgoCC
		for seed := uint64(1); seed <= 10; seed++ {
			want, base := runFuzz(t, testConfig(ranks, algo), iters, seed, useNB, nil)

			// Random-ish checkpoint times derived from the seed.
			frac := 0.15 + 0.7*float64(seed%7)/7.0
			cfg := testConfig(ranks, algo)
			cfg.Checkpoint = &CkptPlan{AtVT: base.RuntimeVT * frac, Mode: ckpt.ExitAfterCapture}
			_, rep := runFuzz(t, cfg, iters, seed, useNB, nil)
			if rep.Image == nil {
				// The job may have finished before the request landed.
				continue
			}
			got, _ := runFuzz(t, testConfig(ranks, algo), iters, seed, useNB, rep.Image)
			for r := 0; r < ranks; r++ {
				if got[r] != want[r] {
					t.Fatalf("%s seed %d frac %.2f rank %d: restart diverged: %v vs %v",
						algo, seed, frac, r, got[r], want[r])
				}
			}
		}
	}
}

// TestPropertyDoubleCheckpointChain: two checkpoint-exit-restart hops across
// random schedules.
func TestPropertyDoubleCheckpointChain(t *testing.T) {
	const ranks, iters = 4, 30
	for seed := uint64(3); seed <= 8; seed++ {
		want, base := runFuzz(t, testConfig(ranks, AlgoCC), iters, seed, true, nil)

		cfg := testConfig(ranks, AlgoCC)
		cfg.Checkpoint = &CkptPlan{AtVT: base.RuntimeVT * 0.3, Mode: ckpt.ExitAfterCapture}
		_, rep1 := runFuzz(t, cfg, iters, seed, true, nil)
		if rep1.Image == nil {
			continue
		}
		cfg2 := testConfig(ranks, AlgoCC)
		cfg2.Checkpoint = &CkptPlan{AtVT: base.RuntimeVT * 0.6, Mode: ckpt.ExitAfterCapture}
		spare := cloneImage(t, rep1.Image) // the second hop takes rep1.Image
		_, rep2 := runFuzz(t, cfg2, iters, seed, true, rep1.Image)
		img := rep2.Image
		if img == nil {
			img = spare
		}
		got, _ := runFuzz(t, testConfig(ranks, AlgoCC), iters, seed, true, img)
		for r := 0; r < ranks; r++ {
			if got[r] != want[r] {
				t.Fatalf("seed %d rank %d: chained restart diverged: %v vs %v",
					seed, r, got[r], want[r])
			}
		}
	}
}

// TestPropertyVirtualTimeOrdering: for every random schedule, the virtual
// makespan must satisfy native <= CC <= 2PC.
func TestPropertyVirtualTimeOrdering(t *testing.T) {
	const ranks, iters = 6, 25
	for seed := uint64(1); seed <= 8; seed++ {
		_, native := runFuzz(t, testConfig(ranks, AlgoNative), iters, seed, false, nil)
		_, twoPC := runFuzz(t, testConfig(ranks, Algo2PC), iters, seed, false, nil)
		_, cc := runFuzz(t, testConfig(ranks, AlgoCC), iters, seed, false, nil)
		if cc.RuntimeVT < native.RuntimeVT {
			t.Fatalf("seed %d: cc (%g) faster than native (%g)", seed, cc.RuntimeVT, native.RuntimeVT)
		}
		if twoPC.RuntimeVT < cc.RuntimeVT {
			t.Fatalf("seed %d: 2pc (%g) faster than cc (%g)", seed, twoPC.RuntimeVT, cc.RuntimeVT)
		}
	}
}

var _ = fmt.Sprintf

// FuzzCheckpointRestartTransparent is the native-fuzzing form of the
// transparency property: the fuzzer owns the schedule seed, the checkpoint
// fraction, and the algorithm choice, instead of the fixed seed sweep the
// TestProperty* variants walk. As a plain test it replays the seed corpus;
// under `go test -fuzz=FuzzCheckpointRestartTransparent ./internal/rt` it
// explores new schedules (CI runs a short -fuzztime smoke of exactly this).
func FuzzCheckpointRestartTransparent(f *testing.F) {
	f.Add(uint64(1), byte(64), true)
	f.Add(uint64(7), byte(180), false)
	f.Add(uint64(42), byte(32), true)
	f.Fuzz(func(t *testing.T, seed uint64, fracByte byte, useCC bool) {
		const ranks, iters = 4, 20
		algo, useNB := Algo2PC, false
		if useCC {
			algo, useNB = AlgoCC, true
		}
		want, base := runFuzz(t, testConfig(ranks, algo), iters, seed, useNB, nil)

		frac := 0.1 + 0.8*float64(fracByte)/255.0
		cfg := testConfig(ranks, algo)
		cfg.Checkpoint = &CkptPlan{AtVT: base.RuntimeVT * frac, Mode: ckpt.ExitAfterCapture}
		_, rep := runFuzz(t, cfg, iters, seed, useNB, nil)
		if rep.Image == nil {
			t.Skip("job finished before the checkpoint request landed")
		}
		got, _ := runFuzz(t, testConfig(ranks, algo), iters, seed, useNB, rep.Image)
		for r := 0; r < ranks; r++ {
			if got[r] != want[r] {
				t.Fatalf("%s seed %d frac %.2f rank %d: restart diverged: %v vs %v",
					algo, seed, frac, r, got[r], want[r])
			}
		}
	})
}

// TestPropertyPeriodicCheckpointsTransparent: random schedules with
// periodic in-place checkpoints (several drain-capture-release cycles per
// run) must leave results untouched.
func TestPropertyPeriodicCheckpointsTransparent(t *testing.T) {
	const ranks, iters = 6, 30
	for seed := uint64(1); seed <= 8; seed++ {
		want, base := runFuzz(t, testConfig(ranks, AlgoCC), iters, seed, true, nil)
		cfg := testConfig(ranks, AlgoCC)
		period := base.RuntimeVT / 4
		cfg.Checkpoint = &CkptPlan{AtVT: period, Every: period, Mode: ckpt.ContinueAfterCapture}
		got, rep := runFuzz(t, cfg, iters, seed, true, nil)
		if len(rep.CheckpointHistory) == 0 {
			continue
		}
		for r := 0; r < ranks; r++ {
			if got[r] != want[r] {
				t.Fatalf("seed %d rank %d: periodic checkpoints changed results: %v vs %v",
					seed, r, got[r], want[r])
			}
		}
	}
}
