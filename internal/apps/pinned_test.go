package apps

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"mana/internal/netmodel"
	"mana/internal/rt"
)

// pinnedState hashes every rank's final application state field by field.
// Report.StateDigest would not do for every row: OSU still snapshots
// through gob, whose process-wide type numbering makes the bytes depend on
// which tests ran before in the same process. The VASP and straggler
// snapshots are fixed-width; all three rows hash the same way regardless.
func pinnedState(apps []rt.App) string {
	h := sha256.New()
	for _, app := range apps {
		switch a := app.(type) {
		case *VASPMini:
			fmt.Fprintln(h, a.Iter, a.Phase, a.Energy, a.Slab, a.bufs.entries(), a.rng.S)
		case *OSU:
			fmt.Fprintln(h, a.Iter, a.Phase)
		case *Straggler:
			fmt.Fprintln(h, a.Iter, a.Acc, a.Sum, a.State)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestVirtualTimeUntouched pins what a host-cost change to the simulator must
// not move: the virtual makespan (bit pattern), the final state of every rank and
// every counter of an uninterrupted run, per workload and algorithm. The
// table was recorded on the commit before the collective/p2p fast path was
// rebuilt (PR 16's parent); a difference here means the change altered the
// model, not only what the model costs the host.
func TestVirtualTimeUntouched(t *testing.T) {
	vasp := func(int) rt.App {
		return NewVASPMini(VASPConfig{Iterations: 40, SlabN: 64, RowSize: 32, BlockBytes: 8, ComputeVT: 1.15e-3})
	}
	osu := func(cfg OSUConfig) func(int) rt.App { return func(int) rt.App { return NewOSU(cfg) } }
	straggler := func(rank int) rt.App {
		return NewStraggler(StragglerConfig{HotRanks: 2, ColdSteps: 4, HotIters: 60, StateElems: 256}, rank)
	}
	cases := []struct {
		name       string
		ranks, ppn int
		factory    func(int) rt.App
		want       map[string]string // by algorithm
	}{
		{"vasp", 64, 32, vasp, map[string]string{
			rt.AlgoNative: "3fa7e8c6845c914d d3bddb70b034f60f {7744 0 5120 5120 0 5120 0 103424 0 [0 0 0 2560 0 64 5120 0 0 0 0 0 0 0 0 0] 0 0 0 0 0}",
			rt.AlgoCC:     "3fa7ea3e53a10796 d3bddb70b034f60f {7744 0 5120 5120 0 5120 0 103424 0 [0 0 0 2560 0 64 5120 0 0 0 0 0 0 0 0 0] 17920 0 0 0 0}",
			rt.Algo2PC:    "3fa84c135acef94a d3bddb70b034f60f {7744 7680 5120 5120 394240 12800 0 103424 0 [7680 0 0 2560 0 64 5120 0 0 0 0 0 0 0 0 0] 17920 0 0 7680 0}",
		}},
		{"osu-allreduce", 16, 4, osu(OSUConfig{Kind: netmodel.Allreduce, Size: 8, Iterations: 50}), map[string]string{
			rt.AlgoNative: "3f40bfebbdd3b5a4 d88c0b8cebfae63e {800 0 0 0 0 0 0 6400 0 [0 0 0 800 0 0 0 0 0 0 0 0 0 0 0 0] 0 0 0 0 0}",
			rt.AlgoCC:     "3f40d0b2b5746b8d d88c0b8cebfae63e {800 0 0 0 0 0 0 6400 0 [0 0 0 800 0 0 0 0 0 0 0 0 0 0 0 0] 800 0 0 0 0}",
			rt.Algo2PC:    "3f50d006e8fd5a01 d88c0b8cebfae63e {800 800 0 0 68000 800 0 6400 0 [800 0 0 800 0 0 0 0 0 0 0 0 0 0 0 0] 800 0 0 800 0}",
		}},
		{"osu-bcast", 16, 4, osu(OSUConfig{Kind: netmodel.Bcast, Size: 1024, Iterations: 50}), map[string]string{
			rt.AlgoNative: "3f29b4b1f8e0fce0 d88c0b8cebfae63e {800 0 0 0 0 0 0 819200 0 [0 800 0 0 0 0 0 0 0 0 0 0 0 0 0 0] 0 0 0 0 0}",
			rt.AlgoCC:     "3f29f7cdd763d49e d88c0b8cebfae63e {800 0 0 0 0 0 0 819200 0 [0 800 0 0 0 0 0 0 0 0 0 0 0 0 0 0] 800 0 0 0 0}",
			rt.Algo2PC:    "3f5077c761d3da7b d88c0b8cebfae63e {800 800 0 0 77310 800 0 819200 0 [800 800 0 0 0 0 0 0 0 0 0 0 0 0 0 0] 800 0 0 800 0}",
		}},
		{"osu-iallreduce", 16, 4, osu(OSUConfig{Kind: netmodel.Allreduce, Nonblocking: true, Size: 8, Iterations: 50, ComputeWindow: 5e-6}),
			map[string]string{
				rt.AlgoNative: "3f40bfebbdd3b5a4 d88c0b8cebfae63e {0 800 0 0 0 800 0 6400 0 [0 0 0 800 0 0 0 0 0 0 0 0 0 0 0 0] 0 0 0 0 0}",
				rt.AlgoCC:     "3f40d0b2b5746b8d d88c0b8cebfae63e {0 800 0 0 0 800 0 6400 0 [0 0 0 800 0 0 0 0 0 0 0 0 0 0 0 0] 800 0 0 0 0}",
			}},
		{"straggler", 8, 4, straggler, map[string]string{
			rt.AlgoNative: "3f37a3cbfcb72dfa ff393bf55df5729b {152 0 0 0 0 0 0 1280 0 [0 0 0 144 0 8 0 0 0 0 0 0 0 0 0 0] 0 0 0 0 0}",
			rt.AlgoCC:     "3f37cc0fe89f48fd ff393bf55df5729b {152 0 0 0 0 0 0 1280 0 [0 0 0 144 0 8 0 0 0 0 0 0 0 0 0 0] 144 0 0 0 0}",
			rt.Algo2PC:    "3f43cd5d029ef29f ff393bf55df5729b {152 144 0 0 5400 144 0 1280 0 [144 0 0 144 0 8 0 0 0 0 0 0 0 0 0 0] 144 0 0 144 0}",
		}},
	}
	for _, c := range cases {
		for _, algo := range []string{rt.AlgoNative, rt.AlgoCC, rt.Algo2PC} {
			want, ok := c.want[algo]
			if !ok {
				continue // 2PC cannot wrap non-blocking collectives
			}
			apps := make([]rt.App, c.ranks)
			rep, err := rt.Run(rt.Config{Ranks: c.ranks, PPN: c.ppn, Params: netmodel.PerlmutterLike(), Algorithm: algo},
				func(rank int) rt.App {
					apps[rank] = c.factory(rank)
					return apps[rank]
				})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, algo, err)
			}
			// BytesRecv is left out: a receive is counted only when its message
			// was already queued at post time, which the host's scheduling
			// decides (20 344 to 20 480 over six runs of vasp on the parent).
			rep.Counters.BytesRecv = 0
			if !rep.Completed || rep.StateDigest == "" {
				t.Fatalf("%s/%s: run did not complete", c.name, algo)
			}
			got := fmt.Sprintf("%016x %s %v", math.Float64bits(rep.RuntimeVT), pinnedState(apps), rep.Counters)
			if got != want {
				t.Errorf("%s/%s:\n got  %s\n want %s", c.name, algo, got, want)
			}
		}
	}
}
