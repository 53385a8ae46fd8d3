package rt

import (
	"math"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

// collApp exercises every env collective, folding results into a checksum,
// so the full collective surface (including Gather/Scatter/Scan/
// ReduceScatter, otherwise unused by the proxy workloads) is covered under
// all three algorithms and across checkpoint/restart.
type collApp struct {
	Iters int
	Iter  int
	Phase int
	Check float64

	Small []byte  // n*8 bytes: per-rank blocks
	Wide  []byte  // n*n*8? kept n*8 for gather outputs
	bufs  Buffers // "small" and "wide"
}

func newCollApp(iters, ranks int) *collApp {
	a := &collApp{Iters: iters}
	a.Small, a.Wide = a.bufs.Add("small", 8*ranks), a.bufs.Add("wide", 8*ranks)
	return a
}

func (a *collApp) Name() string { return "coll-surface" }

func (a *collApp) Setup(env *Env) error { return nil }

func (a *collApp) Buffer(id string) []byte { return a.bufs.Get(id) }

func (a *collApp) fold(v float64) { a.Check = math.Mod(a.Check*1.00007+v, 1e9) }

func (a *collApp) fillSmall(env *Env, base float64) {
	n := env.Size()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = base + float64(env.Rank())
	}
	copy(a.Small, mpi.F64Bytes(vals))
}

func (a *collApp) Step(env *Env) (bool, error) {
	n := env.Size()
	switch a.Phase {
	case 0: // scan
		a.fillSmall(env, 1)
		a.Phase = 1
		env.Scan(WorldVID, mpi.OpSum, "small")
	case 1:
		a.fold(mpi.BytesF64(a.Small)[0])
		a.fillSmall(env, 2)
		a.Phase = 2
		env.ReduceScatter(WorldVID, mpi.OpSum, "small")
	case 2:
		a.fold(mpi.BytesF64(a.Small)[0])
		a.fillSmall(env, 3)
		a.Phase = 3
		env.Gather(WorldVID, 1, "small", "wide")
	case 3:
		if env.Rank() == 1 {
			a.fold(mpi.BytesF64(a.Wide)[n-1])
		}
		a.fillSmall(env, 4)
		a.Phase = 4
		env.Scatter(WorldVID, 0, "small", "wide")
	case 4:
		a.fold(mpi.BytesF64(a.Wide)[0])
		a.fillSmall(env, 5)
		a.Phase = 5
		env.Reduce(WorldVID, 2, mpi.OpMax, "small")
	case 5:
		if env.Rank() == 2 {
			a.fold(mpi.BytesF64(a.Small)[0])
		}
		a.Iter++
		a.Phase = 0
	}
	return a.Iter < a.Iters, nil
}

func (a *collApp) Snapshot() ([]byte, error) {
	return a.bufs.Snapshot([]uint64{uint64(a.Iter), uint64(a.Phase), math.Float64bits(a.Check)}), nil
}

func (a *collApp) Restore(data []byte) error {
	var h [3]uint64
	if err := a.bufs.Restore(a.Name(), data, h[:], 6, a.Iters); err != nil {
		return err
	}
	a.Iter, a.Phase, a.Check = int(h[0]), int(h[1]), math.Float64frombits(h[2])
	return nil
}

func TestFullCollectiveSurface(t *testing.T) {
	const ranks, iters = 4, 6
	results := map[string]float64{}
	for _, algo := range []string{AlgoNative, Algo2PC, AlgoCC} {
		apps := make([]*collApp, ranks)
		rep, err := Run(testConfig(ranks, algo), func(rank int) App {
			a := newCollApp(iters, ranks)
			apps[rank] = a
			return a
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !rep.Completed {
			t.Fatalf("%s did not complete", algo)
		}
		results[algo] = apps[0].Check + apps[1].Check + apps[2].Check
	}
	if results[AlgoNative] != results[Algo2PC] || results[AlgoNative] != results[AlgoCC] {
		t.Fatalf("collective surface results differ across algorithms: %v", results)
	}
	if results[AlgoNative] == 0 {
		t.Fatal("no data flowed")
	}
}

func TestFullCollectiveSurfaceCheckpointRestart(t *testing.T) {
	const ranks, iters = 4, 10
	want := make([]*collApp, ranks)
	base, err := Run(testConfig(ranks, AlgoCC), func(rank int) App {
		a := newCollApp(iters, ranks)
		want[rank] = a
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint at several points: each must restart to identical results.
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		cfg := testConfig(ranks, AlgoCC)
		cfg.Checkpoint = &CkptPlan{AtVT: base.RuntimeVT * frac, Mode: ckpt.ExitAfterCapture}
		rep, err := Run(cfg, func(rank int) App { return newCollApp(iters, ranks) })
		if err != nil {
			t.Fatalf("frac %.2f: %v", frac, err)
		}
		if rep.Image == nil {
			continue
		}
		got := make([]*collApp, ranks)
		if _, err := Restart(testConfig(ranks, AlgoCC), rep.Image, func(rank int) App {
			a := newCollApp(iters, ranks)
			got[rank] = a
			return a
		}); err != nil {
			t.Fatalf("frac %.2f restart: %v", frac, err)
		}
		for r := range want {
			if got[r].Check != want[r].Check {
				t.Fatalf("frac %.2f rank %d: %v vs %v", frac, r, got[r].Check, want[r].Check)
			}
		}
	}
}

func TestEnvValidation(t *testing.T) {
	// Unknown buffer and unknown comm ids must panic with clear messages.
	bad := &badBufApp{}
	if _, err := Run(testConfig(2, AlgoNative), func(int) App { return bad }); err == nil {
		t.Fatal("unknown buffer accepted")
	}
	bad2 := &badCommApp{}
	if _, err := Run(testConfig(2, AlgoNative), func(int) App { return bad2 }); err == nil {
		t.Fatal("unknown comm accepted")
	}
}

type badBufApp struct{ ringApp }

func (a *badBufApp) Setup(env *Env) error { return nil }
func (a *badBufApp) Step(env *Env) (bool, error) {
	env.Bcast(WorldVID, 0, "no-such-buffer")
	return false, nil
}
func (a *badBufApp) Buffer(string) []byte { return nil }

type badCommApp struct{ ringApp }

func (a *badCommApp) Setup(env *Env) error { return nil }
func (a *badCommApp) Step(env *Env) (bool, error) {
	env.Barrier(42)
	return false, nil
}
func (a *badCommApp) Buffer(string) []byte { return nil }
