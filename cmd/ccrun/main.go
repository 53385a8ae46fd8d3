// Command ccrun runs one workload under a checkpointing algorithm, with
// optional checkpoint-and-exit, periodic checkpointing into a store, and
// restart — the repo's mpirun-under-MANA analog. It demonstrates allocation
// chaining end to end:
//
//	ccrun -app vasp -algo cc -ranks 512 -ckpt-at 0.5 -image /tmp/job.img
//	ccrun -app vasp -algo cc -ranks 512 -restart /tmp/job.img
//
// and the staged asynchronous pipeline with incremental shard reuse:
//
//	ccrun -app straggler -algo cc -ckpt-at 0.2 -continue -every 0.2 \
//	      -store /tmp/ckpts -async -incremental
//	ccrun -app straggler -algo cc -restart-store /tmp/ckpts [-epoch 3]
//
// The first periodic invocation seals one store epoch per capture (unchanged
// shards recorded as references to earlier epochs; with -async the job
// stalls only for the filesystem's open latency); the second rebuilds the
// job from any sealed epoch, resolving references through the chain and
// reporting the modeled chain-aware restart read time. Long periodic runs
// bound the store with a retention policy: -keep N garbage-collects dead
// epochs after each seal and -compact-every N periodically rewrites the
// chain into a fresh self-contained epoch, keeping the newest epoch's
// restart read fan-in at N epochs or fewer.
package main

import (
	"flag"
	"fmt"
	"os"

	"mana"
	"mana/internal/ckpt"
)

func main() {
	var (
		app      = flag.String("app", "vasp", "workload: vasp, poisson, comd, lammps, sw4, straggler")
		algo     = flag.String("algo", mana.AlgoCC, "algorithm: native, 2pc, cc")
		ranks    = flag.Int("ranks", 128, "MPI processes")
		ppn      = flag.Int("ppn", 128, "ranks per node")
		scale    = flag.Float64("scale", 0.01, "iteration scale (1.0 = paper-length run)")
		ckptAt   = flag.Float64("ckpt-at", 0, "request a checkpoint at this virtual time (0 = none)")
		every    = flag.Float64("every", 0, "periodic checkpoint interval after the first (0 = one checkpoint)")
		cont     = flag.Bool("continue", false, "continue after the checkpoint instead of exiting")
		async    = flag.Bool("async", false, "staged pipeline: resume the job while shards encode and commit")
		incr     = flag.Bool("incremental", false, "reuse unchanged shards from the previous epoch (implies a store)")
		delta    = flag.Bool("delta", false, "store partially-changed shards as page deltas against the chain's base epoch (implies a store; best with -incremental)")
		cdc      = flag.Bool("cdc", false, "store changed shards as content-defined chunk objects reusing the chain's chunks (implies a store; best with -incremental; excludes -delta)")
		codec    = flag.String("codec", "", "stored-object codec: flate or none (empty = flate)")
		budgetMB = flag.Int("stream-budget", 0, "in-flight streaming-encode budget in MiB for store commits (0 = default)")
		keep     = flag.Int("keep", 0, "garbage-collect the store after each seal, retaining this many epochs (0 = keep everything)")
		compact  = flag.Int("compact-every", 0, "compact the chain into a self-contained epoch every N seals (0 = never)")
		storeDir = flag.String("store", "", "commit each capture as an epoch in this store directory")
		image    = flag.String("image", "", "write the checkpoint image to this file")
		restart  = flag.String("restart", "", "restart from this image file")
		restore  = flag.String("restart-store", "", "restart from a store directory")
		epoch    = flag.Int("epoch", -1, "store epoch to restart from (-1 = latest)")
	)
	flag.Parse()

	factory, err := mana.Workload(*app, *scale)
	if err != nil {
		fail(err)
	}
	cfg := mana.Config{
		Ranks:     *ranks,
		PPN:       *ppn,
		Params:    mana.PerlmutterLike(),
		Algorithm: *algo,
	}
	if *ckptAt <= 0 && (*storeDir != "" || *async || *incr || *delta || *cdc || *codec != "" || *every > 0 || *budgetMB != 0 || *keep != 0 || *compact != 0) {
		// These flags only shape a checkpoint plan; without a first trigger
		// they would be silently discarded and the run would complete with
		// zero captures — surfaced only when a later restart finds an empty
		// store.
		fail(fmt.Errorf("-store/-async/-incremental/-delta/-cdc/-codec/-every/-stream-budget/-keep/-compact-every require -ckpt-at to schedule the first checkpoint"))
	}
	if *delta && *cdc {
		// Both knobs decide how a changed shard's fresh bytes are stored;
		// a commit picks exactly one diff strategy.
		fail(fmt.Errorf("-delta and -cdc are mutually exclusive (pick one diff strategy)"))
	}
	switch *codec {
	case "", "flate", "none":
	default:
		fail(fmt.Errorf("unknown codec %q (want flate or none)", *codec))
	}
	if *budgetMB < 0 {
		fail(fmt.Errorf("-stream-budget must be non-negative (MiB)"))
	}
	if *keep < 0 || *compact < 0 {
		fail(fmt.Errorf("-keep and -compact-every must be non-negative"))
	}
	if *every > 0 && !*cont {
		// Periodic chaining only happens when the job continues after each
		// capture; with the default exit-after-capture mode -every would be
		// silently ignored after the first checkpoint.
		fail(fmt.Errorf("-every requires -continue (a checkpoint-exit run captures once)"))
	}
	if *ckptAt > 0 {
		mode := mana.ExitAfterCapture
		if *cont {
			mode = mana.ContinueAfterCapture
		}
		cfg.Checkpoint = &mana.CkptPlan{
			AtVT: *ckptAt, Every: *every, Mode: mode,
			Async: *async, Incremental: *incr, Delta: *delta, CDC: *cdc, Codec: *codec,
			StreamBudgetBytes: int64(*budgetMB) << 20,
			KeepEpochs:        *keep,
			CompactEvery:      *compact,
		}
		if *storeDir != "" {
			fs, err := mana.NewFileStore(*storeDir)
			if err != nil {
				fail(err)
			}
			cfg.Checkpoint.Store = fs
		}
	}

	var (
		store mana.Store
		from  string
	)
	switch {
	case *restore != "":
		fs, err := mana.NewFileStore(*restore)
		if err != nil {
			fail(err)
		}
		store, from = fs, *restore
	case *restart != "":
		// An image file is one store epoch, packed: it restarts through the
		// same store read path as a directory.
		data, err := os.ReadFile(*restart)
		if err != nil {
			fail(err)
		}
		if store, err = ckpt.OpenImage(data); err != nil {
			fail(err)
		}
		from = *restart
	}
	var rep *mana.Report
	if store != nil {
		e := *epoch
		if e < 0 {
			if e, err = mana.LatestEpoch(store); err != nil {
				fail(err)
			}
		}
		man, err := store.GetManifest(e)
		if err != nil {
			fail(err)
		}
		fmt.Printf("restarting %d ranks from %s epoch %d (captured at vt=%.4fs under %s)\n",
			man.Ranks, from, e, man.CaptureVT, man.Algorithm)
		cfg.Algorithm = man.Algorithm
		cfg.Ranks = man.Ranks
		rep, err = mana.RestartFromStore(cfg, store, e, factory)
		if err != nil {
			fail(err)
		}
	} else if rep, err = mana.Run(cfg, factory); err != nil {
		fail(err)
	}

	fmt.Printf("app=%s algo=%s ranks=%d ppn=%d\n", rep.App, rep.Algorithm, rep.Ranks, rep.PPN)
	fmt.Printf("virtual runtime: %.4f s\n", rep.RuntimeVT)
	fmt.Printf("collective calls: %d (%.1f/s per rank)   p2p calls: %d (%.1f/s per rank)\n",
		rep.Counters.CollCalls(), rep.Rates.CollPerSec,
		rep.Counters.P2PCalls(), rep.Rates.P2PPerSec)
	if rep.RestartReadVT > 0 {
		fmt.Printf("modeled restart read: %.3fs (chain fan-in over the resolved shard set)\n", rep.RestartReadVT)
	}
	for _, st := range rep.CheckpointHistory {
		fmt.Printf("checkpoint: requested at %.4fs, safe state at %.4fs (drain %.2fms), "+
			"%d bytes, write %.3fs (stall %.3fs, overlap %.3fs)",
			st.RequestVT, st.CaptureVT, st.DrainVT*1e3, st.ImageBytes,
			st.WriteVT, st.StallVT, st.OverlapVT)
		fmt.Printf(", epoch %d: %d fresh / %d reused shards, peak encode %.1f MiB",
			st.Epoch, st.FreshShards, st.ReusedShards, float64(st.PeakEncodeBytes)/(1<<20))
		if st.DeltaShards > 0 {
			fmt.Printf(" (%d fresh as page deltas, %d bytes)", st.DeltaShards, st.DeltaBytes)
		}
		if st.CDCShards > 0 {
			fmt.Printf(" (%d fresh as cdc chunk objects, %d bytes; %d chunks predicted from the parent's table)",
				st.CDCShards, st.CDCBytes, st.CDCPredictedChunks)
		}
		if st.CompactedEpoch >= 0 {
			fmt.Printf(", compacted into epoch %d (%.3fs background)", st.CompactedEpoch, st.CompactVT)
		}
		if st.GCDeletedEpochs > 0 || st.GCSweptObjects > 0 {
			fmt.Printf(", gc reclaimed %d bytes (%d epochs, %d debris files)",
				st.GCReclaimedBytes, st.GCDeletedEpochs, st.GCSweptObjects)
		}
		fmt.Println()
	}
	if !rep.Completed {
		fmt.Println("job exited at checkpoint (restart to continue)")
	} else if rep.StateDigest != "" {
		// Equal for an uninterrupted run and for any chain of checkpoint /
		// restart legs of the same program (scripts/cli_roundtrip.sh).
		fmt.Printf("state digest: %s\n", rep.StateDigest)
	}
	if rep.Image != nil && *image != "" {
		if err := mana.SaveImage(*image, rep.Image); err != nil {
			fail(err)
		}
		fmt.Printf("image written to %s\n", *image)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ccrun:", err)
	os.Exit(1)
}
