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
	"bytes"
	"encoding/gob"
	"fmt"
	"log"

	"mana"
)

// piApp is the custom application.
type piApp struct {
	Rounds  int
	Samples int // per rank per round

	Round  int
	Phase  int
	Hits   float64 // local hits this round
	Total  float64 // global samples so far
	InPi   float64 // running estimate
	Seed   uint64
	reduce []byte // named buffer "reduce"
}

func newPiApp(rounds, samples int) *piApp {
	return &piApp{Rounds: rounds, Samples: samples, reduce: make([]byte, 8)}
}

func (a *piApp) Name() string { return "pi" }

func (a *piApp) Setup(env *mana.Env) error {
	a.Seed = uint64(env.Rank())*0x9e3779b9 + 12345
	return nil
}

func (a *piApp) Buffer(id string) []byte {
	if id == "reduce" {
		return a.reduce
	}
	return nil
}

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
		a.Hits = float64(hits)
		copy(a.reduce, mana.F64Bytes([]float64{a.Hits}))
		env.Compute(50e-6) // model the sampling cost
		a.Phase = 1
		env.Allreduce(mana.WorldVID, mana.OpSum, "reduce")
	case 1: // consume the reduction
		globalHits := mana.BytesF64(a.reduce)[0]
		a.Total += float64(a.Samples * env.Size())
		a.InPi += 4 * globalHits // accumulated hit area
		a.Round++
		a.Phase = 0
	}
	return a.Round < a.Rounds, nil
}

func (a *piApp) Estimate() float64 {
	if a.Total == 0 {
		return 0
	}
	return a.InPi / a.Total
}

func (a *piApp) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Round, Phase      int
		Hits, Total, InPi float64
		Seed              uint64
		Reduce            []byte
	}{a.Round, a.Phase, a.Hits, a.Total, a.InPi, a.Seed, a.reduce})
	return buf.Bytes(), err
}

func (a *piApp) Restore(data []byte) error {
	var st struct {
		Round, Phase      int
		Hits, Total, InPi float64
		Seed              uint64
		Reduce            []byte
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	a.Round, a.Phase = st.Round, st.Phase
	a.Hits, a.Total, a.InPi = st.Hits, st.Total, st.InPi
	a.Seed = st.Seed
	copy(a.reduce, st.Reduce)
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
