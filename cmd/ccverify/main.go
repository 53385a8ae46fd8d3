// Command ccverify runs the checkpoint-anywhere conformance matrix: for
// every selected workload and algorithm it checks that a checkpoint taken at
// each of a sweep of step-indexed trigger points restarts into a state
// bitwise-identical to an uninterrupted run (see internal/conformance).
//
// Usage:
//
//	ccverify [-ranks N] [-ppn N] [-scale F] [-workloads a,b] [-algos cc,2pc]
//	         [-min-triggers N] [-max-triggers N] [-only leg[,leg]] [-v]
//
// Beyond the trigger matrix, the run also verifies a set of legs, all of
// them by default; -only names the ones to keep:
//
//	negative     (first runnable case) corruption — both of a decoded
//	             snapshot and of a single shard inside the encoded sharded
//	             image — is detected and attributed
//	crossgeo     (same case) a checkpoint restarts correctly onto a
//	             different ranks-per-node geometry — the allocation-chaining
//	             scenario
//	incremental  the staged asynchronous pipeline's FileStore chains restart
//	             digest-identically from every epoch with incremental shard
//	             reuse and attributable parent-epoch corruption (on the
//	             low-churn straggler workload)
//	delta        page-delta chains store partially-changed shards as dirty
//	             pages, shrink the fresh bytes per capture, and reassemble
//	             byte-identically through their base epochs
//	cdc          content-defined-chunk chains keep reusing chunks under
//	             insertion shifts that collapse page deltas and reassemble
//	             byte-identically through their chunk sources
//	lifecycle    chain compaction and epoch garbage collection reclaim
//	             storage without changing any surviving restart and attribute
//	             dangling references instead of panicking
//	faults       (first runnable case) killing a rank mid-drain or mid-capture aborts the
//	             coordinator with diagnostics instead of wedging
//
// The exit status is non-zero if any check fails, making ccverify directly
// usable as a CI gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"mana/internal/apps"
	"mana/internal/conformance"
)

// legs are the checks that ride along with the trigger matrix, in the order
// they run.
var legs = []string{"negative", "crossgeo", "incremental", "delta", "cdc", "lifecycle", "faults"}

func main() {
	var (
		ranks       = flag.Int("ranks", 4, "simulated ranks")
		ppn         = flag.Int("ppn", 4, "ranks per node")
		scale       = flag.Float64("scale", 0.001, "workload iteration scale (auto-doubled if too few steps)")
		workloads   = flag.String("workloads", strings.Join(apps.Names, ","), "comma-separated workloads")
		algos       = flag.String("algos", "cc,2pc", "comma-separated algorithms")
		minTriggers = flag.Int("min-triggers", 8, "minimum checkpoint trigger points per case")
		maxTriggers = flag.Int("max-triggers", 16, "trigger sweep cap (stratified sampling beyond)")
		only        = flag.String("only", strings.Join(legs, ","), "comma-separated legs to verify beyond the trigger matrix")
		verbose     = flag.Bool("v", false, "log every trigger point")
	)
	flag.Parse()

	run := make(map[string]bool)
	for _, leg := range splitList(*only) {
		if !slices.Contains(legs, leg) {
			fmt.Fprintf(os.Stderr, "ccverify: -only names unknown leg %q (legs: %s)\n", leg, strings.Join(legs, ", "))
			os.Exit(2)
		}
		run[leg] = true
	}

	wls, algoList := splitList(*workloads), splitList(*algos)
	if len(wls) == 0 || len(algoList) == 0 {
		fmt.Fprintln(os.Stderr, "ccverify: -workloads and -algos must each name at least one entry")
		os.Exit(2)
	}

	opts := conformance.Options{
		Ranks:       *ranks,
		PPN:         *ppn,
		Scale:       *scale,
		Workloads:   wls,
		Algorithms:  algoList,
		MinTriggers: *minTriggers,
		MaxTriggers: *maxTriggers,
		Verbose:     *verbose,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	start := time.Now()
	matrix, err := conformance.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccverify: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(matrix.String())

	failed := matrix.Failed()

	// The auxiliary sweeps run on the first case the matrix actually
	// executed (a skipped NA cell has no image to work with), sharing one
	// captured checkpoint across all of them.
	if run["negative"] || run["crossgeo"] {
		var wl, algo string
		for _, c := range matrix.Cases {
			if !c.Skipped {
				wl, algo = c.Workload, c.Algorithm
				break
			}
		}
		if wl == "" {
			fmt.Println("auxiliary checks: skipped (no runnable case in the matrix)")
		} else if verdicts, err := conformance.VerifyAuxSuite(wl, algo, opts, run["negative"], run["crossgeo"]); err != nil {
			fmt.Printf("auxiliary checks (%s/%s): FAIL: %v\n", wl, algo, err)
			failed = true
		} else {
			for _, v := range verdicts {
				if v.Err != nil {
					fmt.Printf("%s check (%s/%s): FAIL: %v\n", v.Name, wl, algo, v.Err)
					failed = true
				} else {
					fmt.Printf("%s check (%s/%s): %s\n", v.Name, wl, algo, v.OK)
				}
			}
		}
	}

	// The incremental-chain sweep runs on the low-churn straggler workload —
	// most ranks finish early and freeze, so the chain actually reuses
	// shards — under the first requested algorithm that can run it.
	if run["incremental"] {
		algo := algoList[0]
		if rpt, err := conformance.VerifyIncrementalChain(conformance.DefaultChainWorkload, algo, opts, true); err != nil {
			fmt.Printf("incremental-chain check (%s/%s): FAIL: %v\n", conformance.DefaultChainWorkload, algo, err)
			failed = true
		} else {
			fmt.Printf("incremental-chain check (%s/%s): %s, ok\n", conformance.DefaultChainWorkload, algo, rpt)
		}
	}

	// The page-delta sweep runs a page-scale straggler chain with Delta on:
	// partially-changed shards must be stored as dirty pages, restart
	// digest-identically through their base epochs, and shrink the fresh
	// bytes per capture against whole-shard reuse.
	if run["delta"] {
		algo := algoList[0]
		if rpt, err := conformance.VerifyDeltaChain(algo, opts); err != nil {
			fmt.Printf("page-delta-chain check (straggler/%s): FAIL: %v\n", algo, err)
			failed = true
		} else {
			fmt.Printf("page-delta-chain check (straggler/%s): %s, ok\n", algo, rpt)
		}
	}

	// The CDC sweep runs an insertion-shifted chain with content-defined
	// chunking on: changed shards must be stored as chunk objects whose
	// reuse survives the byte shift that collapses page deltas, restart
	// digest-identically from every sealed epoch (and after compaction), and
	// attribute damaged chunk sources.
	if run["cdc"] {
		algo := algoList[0]
		if rpt, err := conformance.VerifyCDCChain(algo, opts); err != nil {
			fmt.Printf("cdc-chain check (straggler/%s): FAIL: %v\n", algo, err)
			failed = true
		} else {
			fmt.Printf("cdc-chain check (straggler/%s): %s, ok\n", algo, rpt)
		}
	}

	// The lifecycle sweep reuses the same low-churn chain shape: compaction
	// must restore the depth-1 restart read, GC must reclaim every dead
	// epoch without touching a live reference, and a broken chain must be
	// attributed rather than panicking.
	if run["lifecycle"] {
		algo := algoList[0]
		if rpt, err := conformance.VerifyLifecycle(conformance.DefaultChainWorkload, algo, opts); err != nil {
			fmt.Printf("lifecycle check (%s/%s): FAIL: %v\n", conformance.DefaultChainWorkload, algo, err)
			failed = true
		} else {
			fmt.Printf("lifecycle check (%s/%s): %s, ok\n", conformance.DefaultChainWorkload, algo, rpt)
		}
	}

	// Fault injection runs on the first runnable matrix case.
	if run["faults"] {
		var wl, algo string
		for _, c := range matrix.Cases {
			if !c.Skipped {
				wl, algo = c.Workload, c.Algorithm
				break
			}
		}
		if wl == "" {
			fmt.Println("fault-injection checks: skipped (no runnable case in the matrix)")
		} else if verdicts, err := conformance.VerifyFaultInjection(wl, algo, opts); err != nil {
			fmt.Printf("fault-injection checks (%s/%s): FAIL: %v\n", wl, algo, err)
			failed = true
		} else {
			for _, v := range verdicts {
				if v.Err != nil {
					fmt.Printf("fault %s (%s/%s): FAIL: %v\n", v.Name, wl, algo, v.Err)
					failed = true
				} else {
					fmt.Printf("fault %s (%s/%s): %s\n", v.Name, wl, algo, v.OK)
				}
			}
		}
	}

	fmt.Printf("total %s\n", time.Since(start).Round(time.Millisecond))
	if failed {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
