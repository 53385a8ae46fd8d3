package main

import (
	"encoding/binary"
	"fmt"
	"io"

	"mana/internal/apps"
	"mana/internal/rt"
)

// workload is one set of inputs the benchmark runs. The unit of work is the
// allocation leg: restart from the newest sealed epoch, advance steps
// application steps, seal the next epoch and exit.
type workload struct {
	name string
	why  string

	ranks, ppn int
	steps      int  // S: rank-0 application steps per leg
	legs       int  // L: timed legs per chain (after the untimed leg 0)
	fileStore  bool // FileStore in a temp dir; MemStore otherwise
	// refPasses is how many passes of the reference kernel make one reading
	// between legs: more where the leg is long, so that a reading is not a
	// point sample beside it.
	refPasses int
	// plan is the checkpoint plan's storage shape; the driver fills in the
	// trigger (AtStep), mode, store and Async.
	plan rt.CkptPlan
	// lifecycleEvery, when positive, makes the driver compact the chain and
	// collect the store after every lifecycleEvery-th leg, outside the timed
	// legs.
	lifecycleEvery int
	// short shrinks the state, for the smoke test.
	short bool
	// factory builds the per-rank apps of one program of totalSteps rank-0
	// steps from the seed.
	factory func(w *workload, seed uint64) func(rank int) rt.App
}

// shrunk is the workload cut down to a smoke run: two short legs per chain
// over a small state.
func (w *workload) shrunk() *workload {
	c := *w
	c.legs, c.steps, c.short = 2, min(w.steps, 10), true
	if c.lifecycleEvery > 0 {
		c.lifecycleEvery = 2
	}
	return &c
}

// tailSteps is how many rank-0 steps the program runs past the last sealed
// epoch, so the final restart has real work left before the digest check.
const tailSteps = 5

// totalSteps is the length of the workload's program in rank-0 steps: leg 0,
// the timed legs and the tail. A leg advances a little more than steps: the
// request is raised after rank 0's steps-th step, and the CC drain then runs
// every rank to the furthest collective any of them had reached, which was
// never more than four steps on (vasp_coll) or one (the others).
func (w *workload) totalSteps() int { return (w.legs+1)*(w.steps+w.steps/100+2) + tailSteps }

// jitter draws a seed-determined value in [0, n): the run-to-run variation of
// the problem size. It is kept below half a percent of any size it perturbs,
// so model and byte metrics move by less than their bounds between seeds
// while no two seeds run byte-identical inputs.
func jitter(seed uint64, n int) int {
	seed = (seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	seed ^= seed >> 31
	return int(seed % uint64(n))
}

var workloads = []*workload{
	{
		name:  "vasp_coll",
		why:   "64-rank VASP proxy, ~0.1 MB of state: 3 blocking collectives over overlapping communicators and 4 ring p2p calls per iteration, so mpi, core and netmodel carry the leg and ckpt is fixed cost",
		ranks: 64, ppn: 32, steps: 500, legs: 8, refPasses: 1,
		factory: func(w *workload, seed uint64) func(int) rt.App {
			cfg := apps.VASPConfig{
				// Five steps per iteration; round up so rank 0 never runs out.
				Iterations: (w.totalSteps() + 4) / 5,
				SlabN:      64, RowSize: 32, BlockBytes: 8,
				ComputeVT: 1.15e-3 * (1 + float64(jitter(seed, 1000))*2e-6),
			}
			return func(int) rt.App { return apps.NewVASPMini(cfg) }
		},
	},
	{
		name:  "fat_full",
		why:   "8 ranks rewrite 3 MiB of half-compressible bytes each every step onto a FileStore: snapshot, hash, flate, file write, then read, verify, inflate, decode carry the leg and the simulator idles",
		ranks: 8, ppn: 4, steps: 2, legs: 8, fileStore: true, refPasses: 2,
		factory: func(w *workload, seed uint64) func(int) rt.App {
			size := 3<<20 + 8*jitter(seed, 1024)
			if w.short {
				size = 64 << 10
			}
			return func(rank int) rt.App { return &fatApp{seed: seed, rank: rank, iters: w.totalSteps(), size: size} }
		},
	},
	{
		name:  "inplace_delta",
		why:   "straggler, two 16 MiB hot ranks churning in place under page deltas with compaction and GC: a dirty page or two per leg, so the paged hash, the page diff and the base+delta merge carry the leg",
		ranks: 8, ppn: 4, steps: 4, legs: 20, fileStore: true, refPasses: 2,
		plan:           rt.CkptPlan{Incremental: true, Delta: true, KeepEpochs: 4},
		lifecycleEvery: 8,
		factory:        stragglerFactory(0),
	},
	{
		name:  "shift_cdc",
		why:   "same straggler with an insertion every step under content-defined chunking: every byte shifts each leg, so the gear chunker, the chunk index and the per-chunk merge over a deepening chain carry it",
		ranks: 8, ppn: 4, steps: 4, legs: 6, fileStore: true, refPasses: 2,
		plan:    rt.CkptPlan{Incremental: true, CDC: true},
		factory: stragglerFactory(1),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stragglerFactory is the shared shape of the two churn workloads: 2 hot
// ranks with 16 MiB of state, 6 cold ranks with 1 MiB that finish after two
// steps. insertEvery selects in-place churn (0) or insertion shift (1). The
// seed sizes the frozen cold state: the hot state's length decides which
// pages and chunks a leg dirties, and moving it moved the written bytes by a
// tenth between seeds.
func stragglerFactory(insertEvery int) func(*workload, uint64) func(int) rt.App {
	return func(w *workload, seed uint64) func(int) rt.App {
		cfg := apps.StragglerConfig{
			HotRanks: 2, ColdSteps: 2, HotIters: w.totalSteps(),
			StateElems:    128<<10 + jitter(seed, 512),
			HotStateElems: 2 << 20,
			InsertEvery:   insertEvery,
		}
		if w.short {
			cfg.StateElems, cfg.HotStateElems = 8<<10+jitter(seed, 32), 64<<10
		}
		return func(rank int) rt.App { return apps.NewStraggler(cfg, rank) }
	}
}

// fatApp is the benchmark-owned storage-bound program: every step rewrites
// the whole state from (seed, rank, iteration) and meets the other ranks at
// one world barrier. The bytes alternate 64-byte runs of xorshift noise and
// of one repeated byte, so flate keeps a bit over half of them.
type fatApp struct {
	seed  uint64
	rank  int
	iters int
	size  int

	Iter int
	Data []byte
}

const fatHeader = 3 * 8 // Iter, iters, len(Data), little-endian uint64 each

func (a *fatApp) Name() string              { return "fat" }
func (a *fatApp) Setup(env *rt.Env) error   { return nil }
func (a *fatApp) Buffer(id string) []byte   { return nil }
func (a *fatApp) Snapshot() ([]byte, error) { return append(a.header(), a.Data...), nil }

func (a *fatApp) Step(env *rt.Env) (bool, error) {
	// A restart parked at the final barrier re-issues it and calls Step once
	// more; the pre-advanced counter says the program is over.
	if a.Iter >= a.iters {
		return false, nil
	}
	if len(a.Data) != a.size {
		a.Data = make([]byte, a.size)
	}
	a.fill()
	env.Compute(1e-3)
	a.Iter++ // the program counter advances before the blocking collective
	env.Barrier(rt.WorldVID)
	return a.Iter < a.iters, nil
}

func (a *fatApp) fill() {
	s := a.seed*0x9e3779b97f4a7c15 + uint64(a.rank)<<32 + uint64(a.Iter) + 1
	for off := 0; off < len(a.Data); off += 128 {
		noise := a.Data[off:min(off+64, len(a.Data))]
		for i := 0; i+8 <= len(noise); i += 8 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			binary.LittleEndian.PutUint64(noise[i:], s)
		}
		if off+64 < len(a.Data) {
			run := a.Data[off+64 : min(off+128, len(a.Data))]
			for i := range run {
				run[i] = byte(s)
			}
		}
	}
}

func (a *fatApp) header() []byte {
	hdr := make([]byte, fatHeader, fatHeader+len(a.Data))
	binary.LittleEndian.PutUint64(hdr[0:], uint64(a.Iter))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(a.iters))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(a.Data)))
	return hdr
}

// SnapshotTo implements rt.StreamSnapshotter with exactly Snapshot's bytes.
func (a *fatApp) SnapshotTo(w io.Writer) error {
	if _, err := w.Write(a.header()); err != nil {
		return err
	}
	_, err := w.Write(a.Data)
	return err
}

func (a *fatApp) Restore(data []byte) error {
	if len(data) < fatHeader {
		return fmt.Errorf("fat: snapshot truncated (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint64(data[16:])
	if n != uint64(len(data)-fatHeader) {
		return fmt.Errorf("fat: snapshot claims %d payload bytes, has %d", n, len(data)-fatHeader)
	}
	a.Iter = int(binary.LittleEndian.Uint64(data[0:]))
	a.iters = int(binary.LittleEndian.Uint64(data[8:]))
	a.Data = append(a.Data[:0], data[fatHeader:]...)
	return nil
}
