// poisson_nbc runs the non-blocking-collective conjugate-gradient Poisson
// solver — the workload that MANA's original 2PC algorithm cannot
// checkpoint at all (paper Table 1 / Figure 7 "NA") — under the
// collective-clock algorithm, requesting a checkpoint halfway through rank
// 0's steps and restarting, and verifies that the restarted solve ends in the
// same state, residual bits included, as an uninterrupted run. The drain
// runs while the ranks keep initiating reductions, so the capture can land
// as late as the solve's end; the output says how many ranks had finished.
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

	// solve runs the solver fresh, or restarts it from the epoch `from`
	// sealed when from is non-nil, and returns rank 0's final residual.
	solve := func(cfgRun mana.Config, from *mana.Report) (float64, *mana.Report) {
		var rank0 mana.App
		factory := func(rank int) mana.App {
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
		// The last reduction's result, r·r, lands in the named buffer "rhoout".
		return math.Sqrt(mana.BytesF64(rank0.Buffer("rhoout"))[0]), rep
	}

	ref, refRep := solve(cfg, nil)
	fmt.Printf("uninterrupted: residual %.3e, vt=%.3fs, %d non-blocking collectives\n",
		ref, refRep.RuntimeVT, refRep.Counters.CollNonblocking)

	// First try under 2PC: must be rejected.
	bad := cfg
	bad.Algorithm = mana.Algo2PC
	if _, err := mana.Run(bad, func(int) mana.App { return mana.NewPoisson(pcfg) }); err != nil {
		fmt.Printf("2PC, as expected, cannot run it: %v\n", err)
	} else {
		log.Fatal("2PC unexpectedly accepted non-blocking collectives")
	}

	// Request a checkpoint under CC halfway through rank 0's steps — a
	// step-indexed trigger, as ccverify uses — and restart from it.
	leg1 := cfg
	leg1.Checkpoint = &mana.CkptPlan{AtStep: int(refRep.RankSteps[0] / 2), Mode: mana.ExitAfterCapture}
	_, rep1 := solve(leg1, nil)
	if rep1.Checkpoint == nil {
		log.Fatal("no checkpoint captured")
	}
	ck := rep1.Checkpoint
	fmt.Printf("checkpoint requested at step %d (vt=%.3fs), captured at vt=%.3fs with %d of %d ranks finished: drained %d in-flight non-blocking ops\n",
		leg1.Checkpoint.AtStep, ck.RequestVT, ck.CaptureVT, ck.DoneAtCapture, cfg.Ranks, rep1.Counters.DrainTests)

	got, rep2 := solve(cfg, rep1)
	fmt.Printf("restarted: %d steps on rank 0, residual %.3e, finished at vt=%.3fs\n", rep2.RankSteps[0], got, rep2.RuntimeVT)
	if math.Float64bits(got) != math.Float64bits(ref) {
		log.Fatalf("restart diverged: residual %.17g vs %.17g", got, ref)
	}
	if rep2.StateDigest != refRep.StateDigest {
		log.Fatalf("restart diverged: state digest %.12s vs %.12s", rep2.StateDigest, refRep.StateDigest)
	}
	fmt.Println("restarted solve matches the uninterrupted final state exactly")
}
