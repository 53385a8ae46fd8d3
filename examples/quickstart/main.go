// Quickstart: write a custom MPI application against the mana public API,
// run it under the collective-clock algorithm, checkpoint it mid-run, and
// restart it — all in-process.
//
// The app estimates pi by distributed Monte Carlo: each rank samples points
// locally, and every round the hit counts are combined with a world
// Allreduce. All mutable state lives in the struct and the phase counter
// advances before the blocking collective, per the mana.App contract.
package main

import (
	"fmt"
	"io"
	"log"
	"math"

	"mana"
)

// piApp is the custom application.
type piApp struct {
	Rounds  int
	Samples int // per rank per round

	Round int
	Phase int
	Total float64      // global samples so far
	InPi  float64      // running estimate
	Seed  uint64       // PRNG state
	bufs  mana.Buffers // named buffer "reduce"
}

func newPiApp(rounds, samples int) *piApp {
	a := &piApp{Rounds: rounds, Samples: samples}
	a.bufs.Add("reduce", 8)
	return a
}

func (a *piApp) Name() string { return "pi" }

func (a *piApp) Setup(env *mana.Env) error {
	a.Seed = uint64(env.Rank())*0x9e3779b9 + 12345
	return nil
}

func (a *piApp) Buffer(id string) []byte { return a.bufs.Get(id) }

// rand is a tiny serializable PRNG (the seed is part of the snapshot).
func (a *piApp) rand() float64 {
	a.Seed = a.Seed*6364136223846793005 + 1442695040888963407
	return float64(a.Seed>>11) / (1 << 53)
}

func (a *piApp) Step(env *mana.Env) (bool, error) {
	switch a.Phase {
	case 0: // sample locally, then combine
		hits := 0
		for i := 0; i < a.Samples; i++ {
			x, y := a.rand(), a.rand()
			if x*x+y*y <= 1 {
				hits++
			}
		}
		copy(a.bufs.Get("reduce"), mana.F64Bytes([]float64{float64(hits)}))
		env.Compute(50e-6) // model the sampling cost
		a.Phase = 1
		env.Allreduce(mana.WorldVID, mana.OpSum, "reduce")
	case 1: // consume the reduction
		globalHits := mana.BytesF64(a.bufs.Get("reduce"))[0]
		a.Total += float64(a.Samples * env.Size())
		a.InPi += 4 * globalHits // accumulated hit area
		a.Round++
		a.Phase = 0
	default:
		return false, fmt.Errorf("pi: phase %d outside [0, 1]", a.Phase)
	}
	return a.Round < a.Rounds, nil
}

func (a *piApp) Estimate() float64 {
	if a.Total == 0 {
		return 0
	}
	return a.InPi / a.Total
}

// SnapshotTo writes the header words — Round and Phase first, then the
// scalars — and the named buffer.
func (a *piApp) SnapshotTo(w io.Writer) error {
	return a.bufs.SnapshotTo(w, []uint64{uint64(a.Round), uint64(a.Phase),
		math.Float64bits(a.Total), math.Float64bits(a.InPi), a.Seed})
}

// Restore refuses a snapshot that does not fit this rank — another length, a
// phase Step has no case for, a round past the run, other buffers — and
// leaves the rank as it was.
func (a *piApp) Restore(data []byte) error {
	var h [5]uint64
	if err := a.bufs.Restore(a.Name(), data, h[:], 2, a.Rounds); err != nil {
		return err
	}
	a.Round, a.Phase, a.Total, a.InPi = int(h[0]), int(h[1]), math.Float64frombits(h[2]), math.Float64frombits(h[3])
	a.Seed = h[4]
	return nil
}

func main() {
	cfg := mana.Config{
		Ranks:     64,
		PPN:       16,
		Params:    mana.PerlmutterLike(),
		Algorithm: mana.AlgoCC,
	}
	const rounds, samples = 200, 2000
	apps := make([]*piApp, cfg.Ranks)
	factory := func(rank int) mana.App {
		a := newPiApp(rounds, samples)
		apps[rank] = a
		return a
	}

	// Leg 1: run until a checkpoint at virtual time 5 ms, then exit.
	cfg.Checkpoint = &mana.CkptPlan{AtVT: 5e-3, Mode: mana.ExitAfterCapture}
	rep, err := mana.Run(cfg, factory)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leg 1: checkpointed at vt=%.4fs after a %.3fms drain (%d bytes)\n",
		rep.Checkpoint.CaptureVT, rep.Checkpoint.DrainVT*1e3, rep.Checkpoint.ImageBytes)

	// Leg 2: restart from the epoch leg 1 sealed and finish.
	cfg2 := cfg
	cfg2.Checkpoint = nil
	rep2, err := mana.RestartFromStore(cfg2, rep.Store, rep.Checkpoint.Epoch, factory)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leg 2: finished at vt=%.4fs\n", rep2.RuntimeVT)
	fmt.Printf("pi ~= %.6f after %d rounds x %d ranks x %d samples\n",
		apps[0].Estimate(), rounds, cfg.Ranks, samples)
	fmt.Printf("runtime overhead of CC wrappers: %d interposed calls, %d collectives\n",
		rep2.Counters.WrapperCalls, rep2.Counters.CollCalls())
}
