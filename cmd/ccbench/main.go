// Command ccbench regenerates the paper's evaluation: Table 1, Figures
// 5a/5b/6/7/8/9, and the ablation studies. Results render as aligned text
// on stdout and, with -csvdir, as CSV files for external plotting.
//
// Usage:
//
//	ccbench -exp all                 # everything, laptop scale
//	ccbench -exp fig5a -maxprocs 512 # one experiment, capped sweep
//	ccbench -exp fig7 -scale 0.05    # longer (more faithful) app runs
//
// Absolute virtual runtimes scale linearly with -scale; overhead
// percentages, call rates, and all qualitative comparisons are
// scale-invariant: -scale multiplies each application's iteration count and
// nothing else, so a run is the same per-iteration call mix repeated more or
// fewer times.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mana/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(harness.Order, ", ")+", or all)")
		scale    = flag.Float64("scale", 0.01, "application iteration scale (1.0 = paper-length runs)")
		iters    = flag.Int("iters", 120, "OSU micro-benchmark iterations")
		maxProcs = flag.Int("maxprocs", 2048, "largest simulated process count")
		ppn      = flag.Int("ppn", 128, "ranks per node")
		mtbf     = flag.Float64("mtbf", 10000, "per-node MTBF in hours (failures experiment)")
		workH    = flag.Float64("work-hours", 24, "job compute length in hours (failures experiment)")
		failN    = flag.Int("failure-nodes", 16, "node count priced by the failures experiment")
		csvdir   = flag.String("csvdir", "", "also write <exp>.csv files into this directory")
	)
	flag.Parse()

	opts := harness.DefaultOptions()
	opts.Scale = *scale
	opts.OSUIters = *iters
	opts.MaxProcs = *maxProcs
	opts.PPN = *ppn
	opts.NodeMTBFHours = *mtbf
	opts.FailureWorkHours = *workH
	opts.FailureNodes = *failN

	ids := harness.Order
	if *exp != "all" {
		if harness.Experiments[*exp] == nil {
			fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q (known: %s, all)\n",
				*exp, strings.Join(harness.Order, ", "))
			os.Exit(2)
		}
		ids = []string{*exp}
	}

	for _, id := range ids {
		start := time.Now()
		table, err := harness.Experiments[id](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(table.Render())
		fmt.Printf("[%s completed in %.1fs wall]\n\n", id, time.Since(start).Seconds())
		if *csvdir != "" {
			if err := os.MkdirAll(*csvdir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvdir, id+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
