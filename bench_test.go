package mana

// One benchmark per paper table/figure plus the DESIGN.md ablations. The
// benchmarks run reduced-size versions of the harness experiments (the full
// sweeps live behind cmd/ccbench) and report the paper's metrics — overhead
// percentages, call rates, drain times — via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the evaluation's numbers
// alongside the usual ns/op.

import (
	"testing"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/core"
	"mana/internal/harness"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// benchOptions shrinks experiments to benchmark-friendly sizes while
// preserving the multi-node geometry (128 ranks = 4 nodes at PPN 32).
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Scale = 0.002
	o.OSUIters = 60
	o.MaxProcs = 128
	o.PPN = 32
	return o
}

func benchConfig(ranks int, algo string) rt.Config {
	return rt.Config{Ranks: ranks, PPN: 32, Params: netmodel.PerlmutterLike(), Algorithm: algo}
}

// runtimeOf runs one OSU config and returns the virtual makespan.
func runtimeOf(b *testing.B, ranks int, algo string, cfg apps.OSUConfig) float64 {
	b.Helper()
	rep, err := rt.Run(benchConfig(ranks, algo), func(int) rt.App { return apps.NewOSU(cfg) })
	if err != nil {
		b.Fatal(err)
	}
	return rep.RuntimeVT
}

// BenchmarkTable1CallRates regenerates Table 1's call-rate measurements.
func BenchmarkTable1CallRates(b *testing.B) {
	for _, name := range apps.Names {
		b.Run(name, func(b *testing.B) {
			factory, err := apps.Factory(name, 0.002)
			if err != nil {
				b.Fatal(err)
			}
			var collRate, p2pRate float64
			for i := 0; i < b.N; i++ {
				rep, err := rt.Run(benchConfig(128, rt.AlgoNative), factory)
				if err != nil {
					b.Fatal(err)
				}
				collRate = rep.Rates.CollPerSec
				p2pRate = rep.Rates.P2PPerSec
			}
			b.ReportMetric(collRate, "coll/s")
			b.ReportMetric(p2pRate, "p2p/s")
		})
	}
}

// BenchmarkFig5aBlockingOverhead regenerates Figure 5a's 2PC-vs-CC blocking
// collective overheads for the representative corners of the grid.
func BenchmarkFig5aBlockingOverhead(b *testing.B) {
	cases := []struct {
		kind netmodel.CollKind
		size int
	}{
		{netmodel.Bcast, 4}, {netmodel.Bcast, 1 << 20},
		{netmodel.Alltoall, 4}, {netmodel.Allreduce, 4}, {netmodel.Allgather, 1024},
	}
	for _, c := range cases {
		b.Run(c.kind.String()+"-"+sizeName(c.size), func(b *testing.B) {
			cfg := apps.OSUConfig{Kind: c.kind, Size: c.size, Iterations: 60}
			var ov2pc, ovcc float64
			for i := 0; i < b.N; i++ {
				native := runtimeOf(b, 128, rt.AlgoNative, cfg)
				ov2pc = (runtimeOf(b, 128, rt.Algo2PC, cfg) - native) / native * 100
				ovcc = (runtimeOf(b, 128, rt.AlgoCC, cfg) - native) / native * 100
			}
			b.ReportMetric(ov2pc, "2pc-ov%")
			b.ReportMetric(ovcc, "cc-ov%")
		})
	}
}

func sizeName(s int) string {
	switch {
	case s >= 1<<20:
		return "1MB"
	case s >= 1024:
		return "1KB"
	}
	return "4B"
}

// BenchmarkFig5bNonblockingOverhead regenerates Figure 5b (CC only; 2PC
// does not support non-blocking collectives).
func BenchmarkFig5bNonblockingOverhead(b *testing.B) {
	for _, kind := range []netmodel.CollKind{netmodel.Bcast, netmodel.Allreduce, netmodel.Alltoall} {
		b.Run("I"+kind.String(), func(b *testing.B) {
			cfg := apps.OSUConfig{Kind: kind, Nonblocking: true, Size: 4, Iterations: 60}
			var ov float64
			for i := 0; i < b.N; i++ {
				native := runtimeOf(b, 128, rt.AlgoNative, cfg)
				ov = (runtimeOf(b, 128, rt.AlgoCC, cfg) - native) / native * 100
			}
			b.ReportMetric(ov, "cc-ov%")
		})
	}
}

// BenchmarkFig6Overlap regenerates Figure 6's communication/computation
// overlap comparison.
func BenchmarkFig6Overlap(b *testing.B) {
	measure := func(b *testing.B, algo string) float64 {
		const iters = 60
		base := apps.OSUConfig{Kind: netmodel.Allreduce, Nonblocking: true, Size: 1024, Iterations: iters}
		pure := runtimeOf(b, 128, algo, base)
		withC := base
		withC.ComputeWindow = pure / iters
		tot := runtimeOf(b, 128, algo, withC)
		ov := 1 - (tot-withC.ComputeWindow*iters)/pure
		return ov * 100
	}
	for _, algo := range []string{rt.AlgoNative, rt.AlgoCC} {
		b.Run(algo, func(b *testing.B) {
			var ov float64
			for i := 0; i < b.N; i++ {
				ov = measure(b, algo)
			}
			b.ReportMetric(ov, "overlap%")
		})
	}
}

// BenchmarkFig7RealApps regenerates Figure 7's per-application overheads.
func BenchmarkFig7RealApps(b *testing.B) {
	for _, name := range apps.Names {
		b.Run(name, func(b *testing.B) {
			factory, err := apps.Factory(name, 0.002)
			if err != nil {
				b.Fatal(err)
			}
			run := func(algo string) float64 {
				rep, err := rt.Run(benchConfig(128, algo), factory)
				if err != nil {
					b.Fatal(err)
				}
				return rep.RuntimeVT
			}
			var ovCC, ov2PC float64
			for i := 0; i < b.N; i++ {
				native := run(rt.AlgoNative)
				ovCC = (run(rt.AlgoCC) - native) / native * 100
				if !apps.UsesNonblockingCollectives(name) {
					ov2PC = (run(rt.Algo2PC) - native) / native * 100
				}
			}
			b.ReportMetric(ovCC, "cc-ov%")
			if !apps.UsesNonblockingCollectives(name) {
				b.ReportMetric(ov2PC, "2pc-ov%")
			}
		})
	}
}

// BenchmarkFig8VaspScaling regenerates Figure 8's VASP overhead scaling.
func BenchmarkFig8VaspScaling(b *testing.B) {
	factory, err := apps.Factory("vasp", 0.002)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{32, 64, 128} {
		b.Run(procsName(procs), func(b *testing.B) {
			var ovCC, ov2PC float64
			for i := 0; i < b.N; i++ {
				run := func(algo string) float64 {
					rep, err := rt.Run(benchConfig(procs, algo), factory)
					if err != nil {
						b.Fatal(err)
					}
					return rep.RuntimeVT
				}
				native := run(rt.AlgoNative)
				ov2PC = (run(rt.Algo2PC) - native) / native * 100
				ovCC = (run(rt.AlgoCC) - native) / native * 100
			}
			b.ReportMetric(ov2PC, "2pc-ov%")
			b.ReportMetric(ovCC, "cc-ov%")
		})
	}
}

func procsName(p int) string {
	return map[int]string{32: "32procs", 64: "64procs", 128: "128procs"}[p]
}

// BenchmarkFig9CkptRestart regenerates Figure 9's checkpoint/restart
// timings (paper-size ~398 MB per-rank images through the storage model).
func BenchmarkFig9CkptRestart(b *testing.B) {
	factory, err := apps.Factory("vasp", 0.002)
	if err != nil {
		b.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4} {
		b.Run(nodesName(nodes), func(b *testing.B) {
			procs := nodes * 32
			var write, drain float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(procs, rt.AlgoCC)
				cfg.Checkpoint = &rt.CkptPlan{
					AtVT:               0.05,
					Mode:               ckpt.ExitAfterCapture,
					PaddedBytesPerRank: 398 << 20,
				}
				rep, err := rt.Run(cfg, factory)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Checkpoint == nil {
					b.Fatal("no checkpoint")
				}
				write = rep.Checkpoint.WriteVT
				drain = rep.Checkpoint.DrainVT * 1e3
			}
			b.ReportMetric(write, "ckpt-s")
			b.ReportMetric(drain, "drain-ms")
		})
	}
}

func nodesName(n int) string {
	return map[int]string{1: "1node", 2: "2nodes", 4: "4nodes", 8: "8nodes"}[n]
}

// BenchmarkAblationGgid measures the global-group-id hash — the only
// per-call computation the CC algorithm adds beyond a map increment.
func BenchmarkAblationGgid(b *testing.B) {
	ranks := make([]int, 512)
	for i := range ranks {
		ranks[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.GgidOf(ranks)
	}
}

// BenchmarkAblationCCFastPath measures the host-side cost of one CC-wrapped
// collective versus a native one (the real interposition cost of the
// simulator's fast path).
func BenchmarkAblationCCFastPath(b *testing.B) {
	for _, algo := range []string{rt.AlgoNative, rt.AlgoCC} {
		b.Run(algo, func(b *testing.B) {
			iters := b.N
			if iters < 1 {
				iters = 1
			}
			cfg := apps.OSUConfig{Kind: netmodel.Barrier, Size: 0, Iterations: iters}
			b.ResetTimer()
			rep, err := rt.Run(benchConfig(16, algo), func(int) rt.App { return apps.NewOSU(cfg) })
			if err != nil {
				b.Fatal(err)
			}
			_ = rep
		})
	}
}

// BenchmarkAblationDrainDepth measures the CC drain as the checkpoint
// request lands earlier or later in the run (DESIGN.md ablation 1).
func BenchmarkAblationDrainDepth(b *testing.B) {
	o := benchOptions()
	var table *harness.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = harness.AblationDrainDepth(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = table
}

// BenchmarkAblation2PCBarrier regenerates the "where the barrier hurts"
// breakdown (DESIGN.md ablation 4).
func BenchmarkAblation2PCBarrier(b *testing.B) {
	o := benchOptions()
	o.MaxProcs = 128
	for i := 0; i < b.N; i++ {
		if _, err := harness.Ablation2PCBarrier(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPISimulator measures the raw simulator: small allreduce
// rendezvous throughput across 128 goroutine ranks.
func BenchmarkMPISimulator(b *testing.B) {
	iters := b.N
	if iters < 1 {
		iters = 1
	}
	cfg := apps.OSUConfig{Kind: netmodel.Allreduce, Size: 8, Iterations: iters}
	b.ResetTimer()
	if _, err := rt.Run(benchConfig(128, rt.AlgoNative), func(int) rt.App { return apps.NewOSU(cfg) }); err != nil {
		b.Fatal(err)
	}
}
