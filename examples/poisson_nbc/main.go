// poisson_nbc runs the non-blocking-collective conjugate-gradient Poisson
// solver — the workload that MANA's original 2PC algorithm cannot
// checkpoint at all (paper Table 1 / Figure 7 "NA") — under the
// collective-clock algorithm, checkpointing it mid-solve and restarting,
// and verifies that the solver converges to the same residual as an
// uninterrupted run.
package main

import (
	"fmt"
	"log"
	"math"

	"mana"
)

func main() {
	cfg := mana.Config{
		Ranks: 64, PPN: 16,
		Params:    mana.PerlmutterLike(),
		Algorithm: mana.AlgoCC,
	}
	pcfg := mana.PoissonConfig{N: 256, MaxIters: 400, Tol: 1e-7, ComputeVT: 1e-5}

	// Reference: uninterrupted solve.
	type result struct {
		iters    int
		residual float64
	}
	// solve runs the solver fresh, or restarts it from the epoch `from`
	// sealed when from is non-nil.
	solve := func(cfgRun mana.Config, from *mana.Report) (result, *mana.Report) {
		var probe result
		factory := func(rank int) mana.App { return mana.NewPoisson(pcfg) }
		// Keep rank 0's app to read the final residual.
		var rank0 mana.App
		factory = func(rank int) mana.App {
			a := mana.NewPoisson(pcfg)
			if rank == 0 {
				rank0 = a
			}
			return a
		}
		var rep *mana.Report
		var err error
		if from == nil {
			rep, err = mana.Run(cfgRun, factory)
		} else {
			rep, err = mana.RestartFromStore(cfgRun, from.Store, from.Checkpoint.Epoch, factory)
		}
		if err != nil {
			log.Fatal(err)
		}
		type residualer interface {
			Snapshot() ([]byte, error)
		}
		_ = rank0.(residualer)
		// Re-read residual through the exported fields of the concrete type.
		p := rank0.(interface{ Buffer(string) []byte })
		res := mana.BytesF64(p.Buffer("rhoout"))
		probe.residual = math.Sqrt(res[0])
		return probe, rep
	}

	ref, refRep := solve(cfg, nil)
	fmt.Printf("uninterrupted: residual %.3e, vt=%.3fs, %d non-blocking collectives\n",
		ref.residual, refRep.RuntimeVT, refRep.Counters.CollNonblocking)

	// First try under 2PC: must be rejected.
	bad := cfg
	bad.Algorithm = mana.Algo2PC
	if _, err := mana.Run(bad, func(int) mana.App { return mana.NewPoisson(pcfg) }); err != nil {
		fmt.Printf("2PC, as expected, cannot run it: %v\n", err)
	} else {
		log.Fatal("2PC unexpectedly accepted non-blocking collectives")
	}

	// Checkpoint mid-solve under CC and restart.
	leg1 := cfg
	leg1.Checkpoint = &mana.CkptPlan{AtVT: refRep.RuntimeVT / 2, Mode: mana.ExitAfterCapture}
	_, rep1 := solve(leg1, nil)
	if rep1.Checkpoint == nil {
		log.Fatal("no checkpoint captured")
	}
	fmt.Printf("checkpoint at vt=%.3fs: drained %d in-flight non-blocking ops (all complete at capture)\n",
		rep1.Checkpoint.CaptureVT, rep1.Counters.DrainTests)

	got, rep2 := solve(cfg, rep1)
	fmt.Printf("restarted: residual %.3e, finished at vt=%.3fs\n", got.residual, rep2.RuntimeVT)
	if math.Abs(got.residual-ref.residual) > 1e-12*math.Max(1, ref.residual) {
		log.Fatalf("restart diverged: %.17g vs %.17g", got.residual, ref.residual)
	}
	fmt.Println("restarted solve matches the uninterrupted trajectory exactly")
}
