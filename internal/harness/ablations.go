package harness

import (
	"fmt"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// Ablation studies for the design choices called out in DESIGN.md §5.

// AblationDrainDepth measures the CC drain cost (request-to-capture virtual
// time and target-update traffic) as a function of when in the run the
// checkpoint request lands. The drain is the only checkpoint-time cost the
// CC algorithm adds; the paper's claim is that it is small because execution
// merely continues to the topological-sort frontier.
func AblationDrainDepth(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation: CC drain cost vs checkpoint request placement (vasp, 128 procs)",
		Header: []string{"request at", "drain (ms)", "target updates", "park kinds"},
		Notes: []string{
			"for this tightly bulk-synchronous code the drain is ~0 and no target",
			"updates are needed wherever the request lands: ranks park at the nearest",
			"frontier immediately; skewed programs with overlapping groups (the",
			"paper's Figure 3b) do produce update cascades — see the chain scenario",
			"in internal/rt/chain_test.go",
		},
	}
	const procs = 128
	factory, err := apps.Factory("vasp", o.Scale)
	if err != nil {
		return nil, err
	}
	probe, err := rt.Run(o.config(procs, rt.AlgoCC), factory)
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := o.config(procs, rt.AlgoCC)
		cfg.Checkpoint = &rt.CkptPlan{AtVT: probe.RuntimeVT * frac, Mode: ckpt.ExitAfterCapture}
		rep, err := rt.Run(cfg, factory)
		if err != nil {
			return nil, err
		}
		if rep.Checkpoint == nil || rep.Image == nil {
			return nil, fmt.Errorf("drain ablation: no checkpoint at fraction %.1f", frac)
		}
		kinds := map[string]int{}
		for _, ri := range rep.Image.Images {
			kinds[ri.Desc.Kind.String()]++
		}
		t.AddRow(fmt.Sprintf("%.0f%% of run", frac*100),
			fmt.Sprintf("%.3f", rep.Checkpoint.DrainVT*1e3),
			fmt.Sprint(rep.Counters.TargetUpdatesSent),
			fmt.Sprint(kinds))
	}
	return t, nil
}

// Ablation2PCBarrier compares the 2PC baseline's inserted synchronization
// against the CC wrapper cost across collective types, isolating *why* 2PC
// is slow: the barrier is pure waste for non-synchronizing collectives
// (Bcast) and nearly free for inherently synchronizing ones (Alltoall).
func Ablation2PCBarrier(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation: where 2PC's barrier hurts (512 procs, 4B messages)",
		Header: []string{"collective", "synchronizing?", "2PC overhead", "CC overhead"},
		Notes: []string{
			"the barrier is redundant synchronization for Alltoall/Allreduce-style",
			"collectives but catastrophic for rooted ones whose root exits early",
		},
	}
	const procs = 512
	for _, kind := range []netmodel.CollKind{
		netmodel.Bcast, netmodel.Reduce, netmodel.Allreduce, netmodel.Alltoall, netmodel.Barrier,
	} {
		cfg := apps.OSUConfig{Kind: kind, Size: 4, Iterations: o.OSUIters}
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
		t.AddRow(kind.String(), fmt.Sprint(kind.Synchronizing()),
			pct(overhead(twoPC, native)), pct(overhead(cc, native)))
	}
	return t, nil
}

// AblationNetwork re-runs the headline micro-benchmark on an Ethernet-class
// network. The inserted barrier is expensive relative to a non-synchronizing
// Bcast on ANY fabric; what changed with modern interconnects is the
// achievable call rate (the native op cost column): at hundreds of
// thousands of collectives per second, the same relative overhead became an
// absolute wall-clock disaster, while older, slower networks pushed codes
// toward point-to-point communication that 2PC does not tax (paper §1).
func AblationNetwork(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation: interconnect generation (Bcast 4B, 512 procs)",
		Header: []string{"network", "native op (us)", "native ops/s", "2PC overhead", "CC overhead"},
		Notes: []string{
			"both fabrics show the barrier's relative cost; the modern fabric's 20x",
			"higher call rate is what turns it into the paper's fatal flaw",
		},
	}
	const procs = 512
	for _, net := range []struct {
		name string
		p    netmodel.Params
	}{
		{"Slingshot-11-like", netmodel.PerlmutterLike()},
		{"Ethernet-like", netmodel.EthernetLike()},
	} {
		opts := o
		opts.Params = net.p
		cfg := apps.OSUConfig{Kind: netmodel.Bcast, Size: 4, Iterations: o.OSUIters}
		native, err := opts.runOSU(procs, rt.AlgoNative, cfg)
		if err != nil {
			return nil, err
		}
		twoPC, err := opts.runOSU(procs, rt.Algo2PC, cfg)
		if err != nil {
			return nil, err
		}
		cc, err := opts.runOSU(procs, rt.AlgoCC, cfg)
		if err != nil {
			return nil, err
		}
		perOp := native / float64(o.OSUIters) * 1e6
		t.AddRow(net.name, fmt.Sprintf("%.2f", perOp),
			fmt.Sprintf("%.0f", 1e6/perOp),
			pct(overhead(twoPC, native)), pct(overhead(cc, native)))
	}
	return t, nil
}

// AblationPollInterval sweeps the 2PC test-loop poll period: a coarser poll
// grid worsens 2PC's overhead (each barrier completion rounds up to the
// grid), while CC has no polling at all.
func AblationPollInterval(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation: 2PC test-loop poll interval (Bcast 4B, 256 procs)",
		Header: []string{"poll interval", "2PC overhead"},
	}
	const procs = 256
	for _, interval := range []float64{50e-9, 120e-9, 500e-9, 2e-6} {
		opts := o
		opts.Params.PollInterval = interval
		cfg := apps.OSUConfig{Kind: netmodel.Bcast, Size: 4, Iterations: o.OSUIters}
		native, err := opts.runOSU(procs, rt.AlgoNative, cfg)
		if err != nil {
			return nil, err
		}
		twoPC, err := opts.runOSU(procs, rt.Algo2PC, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0fns", interval*1e9), pct(overhead(twoPC, native)))
	}
	return t, nil
}

// Experiments maps experiment ids to their runners.
var Experiments = map[string]func(Options) (*Table, error){
	"table1":       Table1,
	"fig5a":        Fig5a,
	"fig5b":        Fig5b,
	"fig6":         Fig6,
	"fig7":         Fig7,
	"fig8":         Fig8,
	"fig9":         Fig9,
	"tiers":        TierComparison,
	"failures":     FailureSweep,
	"p2p":          P2PMicrobench,
	"drain":        AblationDrainDepth,
	"barrier":      Ablation2PCBarrier,
	"network":      AblationNetwork,
	"pollinterval": AblationPollInterval,
}

// Order lists experiment ids in presentation order.
var Order = []string{
	"table1", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9",
	"tiers", "failures", "p2p", "drain", "barrier", "network", "pollinterval",
}
