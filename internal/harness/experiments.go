package harness

import (
	"fmt"
	"math"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// Options scales the experiments. The paper's qualitative results — who
// wins, by what factor, where the crossovers are — are invariant in Scale
// and shrink gracefully with MaxProcs; the defaults keep a full regeneration
// in the minutes range on a laptop.
type Options struct {
	// Scale multiplies application iteration counts (1.0 = the paper's full
	// virtual runtimes; rates and overhead percentages are scale-invariant).
	Scale float64
	// OSUIters is the iteration count of each micro-benchmark loop.
	OSUIters int
	// MaxProcs caps the process counts swept by the micro-benchmarks
	// (paper: up to 2048 at 128 per node).
	MaxProcs int
	// Params is the network model (PerlmutterLike by default).
	Params netmodel.Params
	// PPN is ranks per node (paper: 128).
	PPN int
}

// DefaultOptions returns laptop-friendly settings.
func DefaultOptions() Options {
	return Options{
		Scale:    0.01,
		OSUIters: 120,
		MaxProcs: 2048,
		Params:   netmodel.PerlmutterLike(),
		PPN:      128,
	}
}

func (o Options) procsSweep() []int {
	all := []int{128, 256, 512, 1024, 2048}
	var out []int
	for _, p := range all {
		if p <= o.MaxProcs {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []int{o.MaxProcs}
	}
	return out
}

func (o Options) config(ranks int, algo string) rt.Config {
	ppn := o.PPN
	if ppn > ranks {
		ppn = ranks
	}
	return rt.Config{Ranks: ranks, PPN: ppn, Params: o.Params, Algorithm: algo}
}

// runOSU executes one micro-benchmark configuration and returns the virtual
// makespan.
func (o Options) runOSU(ranks int, algo string, cfg apps.OSUConfig) (float64, error) {
	rep, err := rt.Run(o.config(ranks, algo), func(int) rt.App { return apps.NewOSU(cfg) })
	if err != nil {
		return 0, err
	}
	return rep.RuntimeVT, nil
}

// osuKinds are the four collectives of Figure 5, in paper order.
var osuKinds = []netmodel.CollKind{
	netmodel.Bcast, netmodel.Alltoall, netmodel.Allreduce, netmodel.Allgather,
}

// osuSizes are the message sizes of Figure 5, plus size 0 (a pure-latency
// point the paper elides; it regression-covers size-0 benchmark collectives
// through the full checkpoint path).
var osuSizes = []int{0, 4, 1024, 1 << 20}

func sizeLabel(s int) string {
	switch {
	case s >= 1<<20:
		return fmt.Sprintf("%dMB", s>>20)
	case s >= 1024:
		return fmt.Sprintf("%dKB", s>>10)
	}
	return fmt.Sprintf("%dB", s)
}

// alltoallCapped mirrors the paper: Alltoall/Allgather at 1 MB exceed the
// memory limit above 512 processes, so those points are omitted.
func alltoallCapped(kind netmodel.CollKind, size, procs int) bool {
	return (kind == netmodel.Alltoall || kind == netmodel.Allgather) &&
		size >= 1<<20 && procs > 512
}

// Fig5a regenerates Figure 5a: runtime overhead of blocking collectives
// under 2PC and CC versus native, across process counts and message sizes.
func Fig5a(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 5a: OSU blocking collectives, runtime overhead vs native",
		Header: []string{"collective", "size", "procs", "2PC overhead", "CC overhead"},
		Notes: []string{
			"expected shape: CC stays near 0% everywhere; 2PC explodes on small rooted",
			"collectives (Bcast) and fades as message size grows (both ~0% at 1MB)",
		},
	}
	for _, kind := range osuKinds {
		for _, size := range osuSizes {
			for _, procs := range o.procsSweep() {
				if alltoallCapped(kind, size, procs) {
					continue
				}
				cfg := apps.OSUConfig{Kind: kind, Size: size, Iterations: o.OSUIters}
				native, err := o.runOSU(procs, rt.AlgoNative, cfg)
				if err != nil {
					return nil, err
				}
				twoPC, err := o.runOSU(procs, rt.Algo2PC, cfg)
				if err != nil {
					return nil, err
				}
				cc, err := o.runOSU(procs, rt.AlgoCC, cfg)
				if err != nil {
					return nil, err
				}
				t.AddRow(kind.String(), sizeLabel(size), fmt.Sprint(procs),
					pct(overhead(twoPC, native)), pct(overhead(cc, native)))
			}
		}
	}
	return t, nil
}

// Fig5b regenerates Figure 5b: non-blocking collectives under CC (2PC does
// not support them).
func Fig5b(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 5b: OSU non-blocking collectives, CC runtime overhead vs native",
		Header: []string{"collective", "size", "procs", "CC overhead"},
		Notes: []string{
			"2PC column omitted: the 2PC algorithm does not support non-blocking",
			"collectives (paper 5.1.2); small-message overhead is higher than the",
			"blocking case (two wrappers per op) and shrinks with size",
		},
	}
	for _, kind := range osuKinds {
		for _, size := range osuSizes {
			for _, procs := range o.procsSweep() {
				if alltoallCapped(kind, size, procs) {
					continue
				}
				cfg := apps.OSUConfig{Kind: kind, Nonblocking: true, Size: size, Iterations: o.OSUIters}
				native, err := o.runOSU(procs, rt.AlgoNative, cfg)
				if err != nil {
					return nil, err
				}
				cc, err := o.runOSU(procs, rt.AlgoCC, cfg)
				if err != nil {
					return nil, err
				}
				t.AddRow("I"+kind.String(), sizeLabel(size), fmt.Sprint(procs),
					pct(overhead(cc, native)))
			}
		}
	}
	return t, nil
}

// Fig6 regenerates Figure 6: communication/computation overlap of
// non-blocking collectives, native vs CC.
func Fig6(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 6: overlap of communication and computation (non-blocking collectives)",
		Header: []string{"collective", "size", "procs", "native overlap", "CC overlap"},
		Notes: []string{
			"overlap% = 100*(1 - (T_with_compute - T_compute)/T_pure_comm), the OSU",
			"definition; CC must track native closely (its wrappers do not serialize",
			"the background progress of the operation)",
		},
	}
	measure := func(procs int, algo string, kind netmodel.CollKind, size int) (float64, error) {
		base := apps.OSUConfig{Kind: kind, Nonblocking: true, Size: size, Iterations: o.OSUIters}
		pure, err := o.runOSU(procs, algo, base)
		if err != nil {
			return 0, err
		}
		perIter := pure / float64(o.OSUIters)
		window := perIter // compute window sized to the pure comm latency
		withC := base
		withC.ComputeWindow = window
		tot, err := o.runOSU(procs, algo, withC)
		if err != nil {
			return 0, err
		}
		totalCompute := window * float64(o.OSUIters)
		ov := 1 - (tot-totalCompute)/pure
		return 100 * math.Max(0, math.Min(1, ov)), nil
	}
	for _, kind := range osuKinds {
		for _, size := range osuSizes {
			for _, procs := range o.procsSweep() {
				if alltoallCapped(kind, size, procs) {
					continue
				}
				nat, err := measure(procs, rt.AlgoNative, kind, size)
				if err != nil {
					return nil, err
				}
				cc, err := measure(procs, rt.AlgoCC, kind, size)
				if err != nil {
					return nil, err
				}
				t.AddRow("I"+kind.String(), sizeLabel(size), fmt.Sprint(procs),
					fmt.Sprintf("%.1f%%", nat), fmt.Sprintf("%.1f%%", cc))
			}
		}
	}
	return t, nil
}

// Table1 regenerates Table 1: collective and point-to-point call rates per
// second for each workload at 512 processes over 4 nodes.
func Table1(o Options) (*Table, error) {
	const ranks = 512
	t := &Table{
		Title:  "Table 1: communication call rates (512 processes, 4 nodes)",
		Header: []string{"application", "coll. calls/s", "p2p calls/s", "paper coll/s", "paper p2p/s"},
		Notes: []string{
			"rates are averages per process over virtual time, the paper's metric;",
			"workloads are proxies calibrated to the paper's rate bands",
		},
	}
	// OSU reference row (the upper limit).
	osu := apps.OSUConfig{Kind: netmodel.Bcast, Size: 4, Iterations: o.OSUIters}
	rep, err := rt.Run(o.config(ranks, rt.AlgoNative), func(int) rt.App { return apps.NewOSU(osu) })
	if err != nil {
		return nil, err
	}
	t.AddRow("OSU MicroBench (Bcast 4B)", fmt.Sprintf("%.1f", rep.Rates.CollPerSec), "-", "255754.5", "NA")

	paper := map[string][2]string{
		"vasp":    {"2489.2", "2568.9"},
		"poisson": {"21.3", "NA"},
		"comd":    {"7.8", "414.2"},
		"lammps":  {"6.3", "1707.5"},
		"sw4":     {"0.6", "157.9"},
	}
	for _, name := range apps.Names {
		factory, err := apps.Factory(name, o.Scale)
		if err != nil {
			return nil, err
		}
		rep, err := rt.Run(o.config(ranks, rt.AlgoNative), factory)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", name, err)
		}
		p2p := fmt.Sprintf("%.1f", rep.Rates.P2PPerSec)
		if rep.Counters.P2PCalls() == 0 {
			p2p = "NA"
		}
		t.AddRow(name, fmt.Sprintf("%.1f", rep.Rates.CollPerSec), p2p,
			paper[name][0], paper[name][1])
	}
	return t, nil
}

// Fig7 regenerates Figure 7: runtime of the five real-world proxies under
// native, 2PC, and CC at 512 processes.
func Fig7(o Options) (*Table, error) {
	const ranks = 512
	t := &Table{
		Title:  "Figure 7: real-world application runtimes, 512 processes / 4 nodes",
		Header: []string{"application", "native (s)", "2PC (s)", "CC (s)", "2PC overhead", "CC overhead"},
		Notes: []string{
			"virtual seconds at scale=" + fmt.Sprint(o.Scale) + " of the paper's runs;",
			"Poisson uses non-blocking collectives: supported by CC, NA under 2PC",
			"(paper Figure 7); overhead ordering follows the collective call rate",
		},
	}
	for _, name := range apps.Names {
		factory, err := apps.Factory(name, o.Scale)
		if err != nil {
			return nil, err
		}
		run := func(algo string) (float64, error) {
			rep, err := rt.Run(o.config(ranks, algo), factory)
			if err != nil {
				return 0, err
			}
			return rep.RuntimeVT, nil
		}
		native, err := run(rt.AlgoNative)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s native: %w", name, err)
		}
		cc, err := run(rt.AlgoCC)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s cc: %w", name, err)
		}
		twoPCCell, twoPCOver := "NA", "NA"
		if !apps.UsesNonblockingCollectives(name) {
			twoPC, err := run(rt.Algo2PC)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s 2pc: %w", name, err)
			}
			twoPCCell = fmt.Sprintf("%.3f", twoPC)
			twoPCOver = pct(overhead(twoPC, native))
		}
		t.AddRow(name, fmt.Sprintf("%.3f", native), twoPCCell,
			fmt.Sprintf("%.3f", cc), twoPCOver, pct(overhead(cc, native)))
	}
	return t, nil
}

// Fig8 regenerates Figure 8: VASP runtime overhead scaling over 128/256/512
// processes, 2PC vs CC.
func Fig8(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 8: VASP runtime overhead scaling, 2PC vs CC",
		Header: []string{"procs", "nodes", "2PC overhead", "CC overhead"},
		Notes: []string{
			"paper: CC ranges 2% (128 procs) to 5.2% (512), 2PC roughly double;",
			"only 2PC reproduces the trend of overhead growing with scale. CC",
			"rounds to 0.0% because the only CC cost modeled is call",
			"interposition (netmodel.WrapperCost: 40 ns x ~2 500 collectives/s",
			"per rank is ~0.01% of runtime)",
		},
	}
	factory, err := apps.Factory("vasp", o.Scale)
	if err != nil {
		return nil, err
	}
	for _, procs := range []int{128, 256, 512} {
		if procs > o.MaxProcs {
			continue
		}
		run := func(algo string) (float64, error) {
			rep, err := rt.Run(o.config(procs, algo), factory)
			if err != nil {
				return 0, err
			}
			return rep.RuntimeVT, nil
		}
		native, err := run(rt.AlgoNative)
		if err != nil {
			return nil, err
		}
		twoPC, err := run(rt.Algo2PC)
		if err != nil {
			return nil, err
		}
		cc, err := run(rt.AlgoCC)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(procs), fmt.Sprint((procs+o.PPN-1)/o.PPN),
			pct(overhead(twoPC, native)), pct(overhead(cc, native)))
	}
	return t, nil
}

// Fig9 regenerates Figure 9: VASP checkpoint and restart times over 1-16
// nodes for 2PC and CC. Image sizes use the paper's ~398 MB per rank.
func Fig9(o Options) (*Table, error) {
	t := &Table{
		Title:  "Figure 9: VASP checkpoint and restart times, 2PC vs CC",
		Header: []string{"nodes", "procs", "algo", "drain (s)", "ckpt write (s)", "restart (s)", "image total"},
		Notes: []string{
			"checkpoint images are ~398 MB per rank (the paper's VASP image size;",
			"the lower half is not saved); times grow with node count because the",
			"total data grows; 2PC and CC are nearly identical (the algorithm only",
			"determines the drain, not the I/O)",
		},
	}
	const perRankImage = int64(398) << 20
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		procs := nodes * o.PPN
		if procs > o.MaxProcs {
			continue
		}
		factory, err := apps.Factory("vasp", o.Scale)
		if err != nil {
			return nil, err
		}
		for _, algo := range []string{rt.Algo2PC, rt.AlgoCC} {
			cfg := o.config(procs, algo)
			// Request the checkpoint mid-run (a random time in the paper).
			probe, err := rt.Run(o.config(procs, rt.AlgoNative), factory)
			if err != nil {
				return nil, err
			}
			cfg.Checkpoint = &rt.CkptPlan{
				AtVT:               probe.RuntimeVT / 2,
				Mode:               ckpt.ExitAfterCapture,
				PaddedBytesPerRank: perRankImage,
			}
			rep, err := rt.Run(cfg, factory)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s %d nodes: %w", algo, nodes, err)
			}
			if rep.Checkpoint == nil {
				return nil, fmt.Errorf("fig9 %s %d nodes: no checkpoint captured", algo, nodes)
			}
			st := rep.Checkpoint
			restart := netmodel.New(o.Params, cfg.PPN).RestartReadTime(st.ImageBytes, nodes)
			t.AddRow(fmt.Sprint(nodes), fmt.Sprint(procs), algo,
				fmt.Sprintf("%.4f", st.DrainVT),
				fmt.Sprintf("%.2f", st.WriteVT),
				fmt.Sprintf("%.2f", restart),
				fmt.Sprintf("%.1f GB", float64(st.ImageBytes)/(1<<30)))
		}
	}
	return t, nil
}
