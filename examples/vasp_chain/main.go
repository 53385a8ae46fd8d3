// vasp_chain demonstrates the paper's motivating scenario (§1): a
// long-running VASP job executed by chaining time-bounded resource
// allocations through checkpoint-restart. Each "allocation" runs the job for
// a fixed slice of virtual time, checkpoints at a safe state found by the
// collective-clock drain, and exits; the next allocation restarts from the
// epoch the last one sealed, in a fresh lower half.
package main

import (
	"fmt"
	"log"

	"mana"
)

func main() {
	const (
		ranks      = 128
		ppn        = 32 // 4 nodes
		scale      = 0.005
		allocation = 0.15 // virtual seconds per "allocation"
	)
	factory, err := mana.Workload("vasp", scale)
	if err != nil {
		log.Fatal(err)
	}
	base := mana.Config{
		Ranks: ranks, PPN: ppn,
		Params:    mana.PerlmutterLike(),
		Algorithm: mana.AlgoCC,
	}

	var prev *mana.Report // the last allocation, which sealed the epoch to restart from
	start := 0.0
	for leg := 1; ; leg++ {
		cfg := base
		cfg.Checkpoint = &mana.CkptPlan{
			AtVT: start + allocation,
			Mode: mana.ExitAfterCapture,
		}
		var rep *mana.Report
		if prev == nil {
			rep, err = mana.Run(cfg, factory)
		} else {
			rep, err = mana.RestartFromStore(cfg, prev.Store, prev.Checkpoint.Epoch, factory)
		}
		if err != nil {
			log.Fatal(err)
		}
		if rep.Completed {
			fmt.Printf("leg %d: job COMPLETED at vt=%.3fs "+
				"(%d collective calls total this leg)\n",
				leg, rep.RuntimeVT, rep.Counters.CollCalls())
			break
		}
		st := rep.Checkpoint
		fmt.Printf("leg %d: ran vt=[%.3f, %.3f]s, drain %.3fms, "+
			"image %d KB, write %.2fs\n",
			leg, start, st.CaptureVT, st.DrainVT*1e3,
			st.ImageBytes>>10, st.WriteVT)
		prev = rep
		start = st.CaptureVT
		if leg > 20 {
			log.Fatal("too many legs; job not converging")
		}
	}
}
