package rt

import (
	"io"
	"math"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

// chainApp reproduces the paper's Figure 3b scenario: overlapping groups
// {0,1}, {1,2}, {2,3} with strongly skewed rank speeds and non-synchronizing
// collectives (Bcast, whose root exits early). When a checkpoint lands, fast
// ranks are several sequence numbers ahead on shared groups; draining a
// middle rank pushes it past a neighbouring group's target, which must be
// raised and fanned out via target-update messages — the cascade where
// "Condition A is applied twice for P2 and once for P4" (paper Figure 2b).
type chainApp struct {
	Iters int
	Iter  int
	Phase int
	Acc   float64
	Buf   []byte  // named buffer "b"
	bufs  Buffers // "b"

	left, right int // pair-comm vids (-1 when absent)
}

func newChainApp(iters int) *chainApp {
	a := &chainApp{Iters: iters, left: -1, right: -1}
	a.Buf = a.bufs.Add("b", 8)
	return a
}

func (a *chainApp) Name() string { return "chain-test" }

// Setup builds the pair communicators {r, r+1} via two splits: one pairing
// even-odd (0-1, 2-3, ...), one pairing odd-even (1-2, 3-4, ...).
func (a *chainApp) Setup(env *Env) error {
	me := env.Rank()
	n := env.Size()
	// Split A: pairs (0,1), (2,3), ...
	colorA := me / 2
	vidA := env.Split(WorldVID, colorA, me)
	// Split B: pairs (1,2), (3,4), ...; ranks 0 and n-1 sit out.
	colorB := -1
	if me > 0 && me < n || me == 0 {
		colorB = (me + 1) / 2
		if me == 0 || (me == n-1 && n%2 == 0) {
			colorB = -1
		}
	}
	vidB := env.Split(WorldVID, colorB, me)
	// left = comm with my left neighbour, right = with my right neighbour.
	if me%2 == 0 {
		a.right = vidA
		a.left = vidB
	} else {
		a.left = vidA
		a.right = vidB
	}
	return nil
}

func (a *chainApp) Buffer(id string) []byte { return a.bufs.Get(id) }

func (a *chainApp) Step(env *Env) (bool, error) {
	// Strong skew: rank r is (r+1)x slower, so at any instant the chain is
	// spread across several iterations.
	env.Compute(float64(env.Rank()+1) * 2e-6)
	switch a.Phase {
	case 0: // bcast on the left-pair comm (I am the non-root for it)
		if a.left < 0 {
			a.Phase = 1
			return true, nil
		}
		copy(a.Buf, mpi.F64Bytes([]float64{float64(a.Iter)}))
		a.Phase = 1
		env.Bcast(a.left, 0, "b") // root = lower rank: exits early
	case 1: // consume, then bcast on the right-pair comm as root
		a.Acc += mpi.BytesF64(a.Buf)[0]
		if a.right < 0 {
			a.Iter++
			a.Phase = 0
			return a.Iter < a.Iters, nil
		}
		copy(a.Buf, mpi.F64Bytes([]float64{float64(a.Iter) + 0.5}))
		a.Phase = 2
		env.Bcast(a.right, 0, "b")
	case 2:
		a.Acc += mpi.BytesF64(a.Buf)[0] * 1e-3
		a.Iter++
		a.Phase = 0
	}
	return a.Iter < a.Iters, nil
}

func (a *chainApp) SnapshotTo(w io.Writer) error {
	return a.bufs.SnapshotTo(w, []uint64{uint64(a.Iter), uint64(a.Phase), math.Float64bits(a.Acc)})
}

func (a *chainApp) Restore(data []byte) error {
	var h [3]uint64
	if err := a.bufs.Restore(a.Name(), data, h[:], 3, a.Iters); err != nil {
		return err
	}
	a.Iter, a.Phase, a.Acc = int(h[0]), int(h[1]), math.Float64frombits(h[2])
	return nil
}

// TestTargetUpdateCascade checkpoints the skewed chain mid-run and verifies
// the drain actually exercised Algorithm 2's SEND/RECEIVE machinery: target
// updates were sent and consumed, the safe state verified, and a restart
// reproduces the uninterrupted result.
func TestTargetUpdateCascade(t *testing.T) {
	const ranks, iters = 6, 60
	cfg := testConfig(ranks, AlgoCC)

	baseline := make([]*chainApp, ranks)
	rep, err := Run(cfg, func(rank int) App {
		a := newChainApp(iters)
		baseline[rank] = a
		return a
	})
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint mid-run; the skew guarantees ranks are spread out.
	ck := cfg
	ck.Checkpoint = &CkptPlan{AtVT: rep.RuntimeVT / 2, Mode: ckpt.ExitAfterCapture}
	rep2, err := Run(ck, func(rank int) App { return newChainApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Image == nil {
		t.Fatal("no image")
	}
	if rep2.Counters.TargetUpdatesSent == 0 {
		t.Fatal("the drain sent no target updates; the Figure 3b cascade was not exercised")
	}
	if rep2.Counters.TargetUpdatesSent != rep2.Counters.TargetUpdatesRecv {
		t.Fatalf("updates sent (%d) != consumed (%d)",
			rep2.Counters.TargetUpdatesSent, rep2.Counters.TargetUpdatesRecv)
	}

	restarted := make([]*chainApp, ranks)
	rep3, err := Restart(cfg, rep2.Image, func(rank int) App {
		a := newChainApp(iters)
		restarted[rank] = a
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Completed {
		t.Fatal("restart did not complete")
	}
	for r := range baseline {
		if math.Abs(restarted[r].Acc-baseline[r].Acc) > 1e-12 {
			t.Fatalf("rank %d diverged after cascade restart: %v vs %v",
				r, restarted[r].Acc, baseline[r].Acc)
		}
		if restarted[r].Iter != iters {
			t.Fatalf("rank %d stopped at %d", r, restarted[r].Iter)
		}
	}
}

// TestDrainStopsAtFrontier checks the paper's §4.2.2 goal conditions on the
// skewed chain. The safe state forms a *staircase* cut: along the chain of
// overlapping pair-groups, adjacent ranks park at iterations differing by at
// most one (each shared group's sequence numbers agree — condition 1), and
// the drain does not run lagging ranks past the frontier established by the
// fastest rank (condition 2).
func TestDrainStopsAtFrontier(t *testing.T) {
	const ranks, iters = 6, 400
	cfg := testConfig(ranks, AlgoCC)
	rep, err := Run(cfg, func(rank int) App { return newChainApp(iters) })
	if err != nil {
		t.Fatal(err)
	}

	ck := cfg
	// Early enough that even the fastest rank is mid-run.
	ck.Checkpoint = &CkptPlan{AtVT: rep.RuntimeVT / 10, Mode: ckpt.ExitAfterCapture}
	rep2, err := Run(ck, func(rank int) App { return newChainApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Checkpoint == nil || rep2.Image == nil {
		t.Fatal("no checkpoint")
	}
	iterAt := make([]int, ranks)
	for _, ri := range rep2.Image.Images {
		a := newChainApp(iters)
		if err := a.Restore(ri.App); err != nil {
			t.Fatal(err)
		}
		iterAt[ri.Rank] = a.Iter
	}
	for r := 0; r+1 < ranks; r++ {
		d := iterAt[r] - iterAt[r+1]
		if d < 0 || d > 1 {
			t.Fatalf("staircase broken between ranks %d and %d: %v", r, r+1, iterAt)
		}
	}
	// Condition 2: the drain must not have run the job to completion.
	for r, it := range iterAt {
		if it >= iters {
			t.Fatalf("rank %d drained to completion (%d of %d): %v", r, it, iters, iterAt)
		}
	}
}
