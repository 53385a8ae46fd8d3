package conformance

// Chain conformance: a restart from any sealed epoch of a periodic FileStore
// chain is transparent, whatever the storage plan. The table below has one
// row per plan — whole-shard reuse, page deltas, content-defined chunks —
// naming only its workload, its baseline and test plans, what the test chain
// must store, and the factor by which it must beat the baseline. Everything
// else runs the same way for every row:
//
//   - every capture of both chains against what its plan promises;
//   - a restart from every sealed epoch of the test chain, and VerifyStore;
//   - damage to an object a later epoch of the whole chain reads — a reused
//     shard, a partial object's source — attributed by the restart and by
//     VerifyStore;
//   - GC keeping 2, after which every survivor still verifies and restarts;
//   - a dangling reference among the survivors, attributed the same way;
//   - compaction, then GC keeping 1, leaving one epoch that restarts at
//     exactly the depth-1 read price.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// chainGate is the per-capture mean a row's test chain must push below its
// factor times the baseline's.
type chainGate int

const (
	// meanStall is the job-visible stall per capture, over every capture.
	meanStall chainGate = iota
	// steadyFresh is the fresh bytes per capture after the first: the first
	// has no parent to reuse from, so it is all fresh under every plan.
	steadyFresh
)

func (g chainGate) String() string {
	if g == meanStall {
		return "mean stall per capture"
	}
	return "mean fresh bytes per steady-state capture"
}

func (g chainGate) mean(hist []ckpt.CheckpointStats) float64 {
	if g == steadyFresh {
		hist = hist[1:]
	}
	var sum float64
	for i := range hist {
		if g == meanStall {
			sum += hist[i].StallVT
		} else {
			sum += float64(hist[i].FreshBytes)
		}
	}
	return sum / float64(len(hist))
}

// chainRow is one storage plan's leg of the table.
type chainRow struct {
	leg string
	// wl is the workload: the registered one at the options' adapted scale,
	// or, when shape is set, the straggler at that shape.
	wl    string
	shape *apps.StragglerConfig
	// base and test are the storage side of the two chains' plans; the
	// capture triggers come from runChain.
	base, test rt.CkptPlan
	// stored counts the shards of a test-chain capture that are what the
	// row exists for — reused, page-delta or chunk-object shards, as what
	// names them; the chain must store some. Nil asks for nothing.
	stored func(*ckpt.CheckpointStats) int
	what   string
	gate   chainGate
	factor float64
}

// fig9Padded is Figure 9's VASP per-rank image size: the incremental row
// prices its writes at it, so a synchronous capture stalls for a real
// transfer.
const fig9Padded = 398 << 20

var chainRows = []chainRow{{
	// The registered straggler: most ranks finish early and freeze, so an
	// incremental chain reuses their shards, and an async one stalls only
	// for the storage open latency while the padded transfer streams behind
	// execution.
	leg:    "incremental",
	wl:     "straggler",
	base:   rt.CkptPlan{PaddedBytesPerRank: fig9Padded},
	test:   rt.CkptPlan{Async: true, Incremental: true, PaddedBytesPerRank: fig9Padded},
	stored: func(st *ckpt.CheckpointStats) int { return st.ReusedShards },
	what:   "reused",
	gate:   meanStall,
	factor: 1,
}, {
	// Hot ranks carry 8 pages of bulk state and each step's churn touches a
	// few elements, so a capture period dirties the header page and the page
	// or two the churn window crossed. Cold ranks freeze one page.
	leg: "delta",
	wl:  "straggler",
	shape: &apps.StragglerConfig{
		HotRanks: 2, ColdSteps: 4, HotIters: 60,
		StateElems:    8 << 10,  // 64 KiB
		HotStateElems: 64 << 10, // 512 KiB
	},
	base:   rt.CkptPlan{Async: true, Incremental: true},
	test:   rt.CkptPlan{Async: true, Incremental: true, Delta: true},
	stored: func(st *ckpt.CheckpointStats) int { return st.DeltaShards },
	what:   "page-delta",
	gate:   steadyFresh,
	factor: 1.0 / 2,
}, {
	// Hot ranks carry ~2 MiB — a few dozen target-size chunks — and insert
	// an element at an interior position every iteration, shifting every
	// later byte: page deltas re-anchor to full shards every capture, while
	// content-defined chunks realign one chunk past the edit.
	leg: "cdc",
	wl:  "straggler",
	shape: &apps.StragglerConfig{
		HotRanks: 2, ColdSteps: 4, HotIters: 60,
		StateElems:    8 << 10,   // 64 KiB
		HotStateElems: 256 << 10, // 2 MiB
		InsertEvery:   1,
	},
	base:   rt.CkptPlan{Async: true, Incremental: true, Delta: true},
	test:   rt.CkptPlan{Async: true, Incremental: true, CDC: true},
	stored: func(st *ckpt.CheckpointStats) int { return st.CDCShards },
	what:   "chunk-object",
	gate:   steadyFresh,
	factor: 1.0 / 3,
}}

// ChainLegs names the storage plans VerifyChain checks, in table order.
func ChainLegs() []string {
	out := make([]string, len(chainRows))
	for i := range chainRows {
		out[i] = chainRows[i].leg
	}
	return out
}

func chainRowOf(leg string) (chainRow, error) {
	for _, row := range chainRows {
		if row.leg == leg {
			return row, nil
		}
	}
	return chainRow{}, fmt.Errorf("unknown chain leg %q (legs: %s)", leg, strings.Join(ChainLegs(), ", "))
}

const (
	// chainCaptures is how many captures runChain spaces over the golden
	// run. Host timing drops some — a request that meets a capture in
	// flight is not retried — so a chain need only take minEpochs, and the
	// test chain leave as many sealed.
	chainCaptures = 5
	minEpochs     = 3
)

// ChainReport is what one row's checks compared, for callers that report
// (ccverify).
type ChainReport struct {
	Workload           string
	Epochs             int // sealed epochs of the test chain
	Stored, Fresh      int // the test chain's shards of the row's kind, and its fresh shards
	What               string
	Gate               chainGate
	Base, Test, Factor float64 // the gate's two means and the factor Test must be below
	BaseName, TestName string
	StreamPeak         int64 // the test chain's largest per-capture encode peak
	// Lifecycle, on the test chain: compaction then GC keeping 1.
	CompactedEpoch int
	DeletedEpochs  int
	ReclaimedBytes int64
	ReadVTBefore   float64 // restart read of the epoch compacted, before compaction
	ReadVTAfter    float64 // and of the compacted epoch
}

func (r *ChainReport) String() string {
	s := fmt.Sprintf("%d epochs, %d fresh shards", r.Epochs, r.Fresh)
	if r.What != "" {
		s += fmt.Sprintf(", %d %s shards", r.Stored, r.What)
	}
	s += fmt.Sprintf("; %s %.6g vs %.6g %s, ratio %.6g (gate < %.3g); peak encode %d B",
		r.Gate, r.Test, r.Base, r.BaseName, r.Test/r.Base, r.Factor, r.StreamPeak)
	if r.DeletedEpochs > 0 {
		s += fmt.Sprintf("; compacted into epoch %d, gc reclaimed %d B across %d epochs, restart read %.4gs -> %.4gs",
			r.CompactedEpoch, r.ReclaimedBytes, r.DeletedEpochs, r.ReadVTBefore, r.ReadVTAfter)
	}
	return s
}

// VerifyChain runs one row of the chain table (a name from ChainLegs) under
// one algorithm.
func VerifyChain(leg, algo string, opts Options) (*ChainReport, error) {
	row, err := chainRowOf(leg)
	if err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	return verifyChain(&o, row, algo)
}

func verifyChain(o *Options, row chainRow, algo string) (*ChainReport, error) {
	goldenRep, factory, err := row.golden(o, algo)
	if err != nil {
		return nil, err
	}
	golden := goldenRep.StateDigest
	tmp, err := os.MkdirTemp("", "ckpt-chain-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// fs ends as the test chain's store.
	var reps [2]*rt.Report
	var fs *ckpt.FileStore
	for i, plan := range [2]rt.CkptPlan{row.base, row.test} {
		if reps[i], fs, err = runChain(o, algo, goldenRep, factory, filepath.Join(tmp, planName(plan)), plan); err != nil {
			return nil, err
		}
		if err := checkCaptures(reps[i].CheckpointHistory, plan); err != nil {
			return nil, fmt.Errorf("%s chain: %w", planName(plan), err)
		}
	}
	testHist := reps[1].CheckpointHistory
	rpt := &ChainReport{
		Workload: row.wl, What: row.what,
		Gate: row.gate, Factor: row.factor,
		Base: row.gate.mean(reps[0].CheckpointHistory), Test: row.gate.mean(testHist),
		BaseName: planName(row.base), TestName: planName(row.test),
	}
	for i := range testHist {
		st := &testHist[i]
		rpt.Fresh += st.FreshShards
		if row.stored != nil {
			rpt.Stored += row.stored(st)
		}
		rpt.StreamPeak = max(rpt.StreamPeak, st.PeakEncodeBytes)
	}
	if row.stored != nil && rpt.Stored == 0 {
		return nil, fmt.Errorf("%s chain stored no %s shards (%d fresh)", rpt.TestName, row.what, rpt.Fresh)
	}
	if !(rpt.Test < row.factor*rpt.Base) {
		return nil, fmt.Errorf("%s chain's %s is %.6g against %.6g for %s: ratio %.6g, want below %.3g",
			rpt.TestName, row.gate, rpt.Test, rpt.Base, rpt.BaseName, rpt.Test/rpt.Base, row.factor)
	}
	o.Logf("%s/%s: %s %.6g vs %.6g %s", row.leg, algo, row.gate, rpt.Test, rpt.Base, rpt.BaseName)

	// The baseline chain's restarts would check nothing new: each baseline
	// plan is another row's test plan, or the trigger matrix's sync full one.
	if rpt.Epochs, err = restartEverySealed(o, algo, row.wl+"/"+rpt.TestName, fs, golden, factory); err != nil {
		return nil, err
	}
	if rpt.Epochs < minEpochs {
		return nil, fmt.Errorf("only %d sealed %s epochs (want >= %d)", rpt.Epochs, rpt.TestName, minEpochs)
	}
	if faults, err := ckpt.VerifyStore(fs); err != nil || len(faults) != 0 {
		return nil, fmt.Errorf("pristine %s chain did not verify: faults=%v err=%v", rpt.TestName, faults, err)
	}
	// The damage legs run on the whole chain, so every epoch that reads the
	// damaged object is verified, not only the GC survivors.
	ref, src, err := newestDependencies(fs)
	if err != nil {
		return nil, err
	}
	for _, d := range []*dependency{ref, src} {
		if d == nil {
			continue
		}
		if err := verifyDamageAttributed(o, algo, fs, factory, d); err != nil {
			return nil, err
		}
	}

	// GC keeping 2 must keep every epoch a survivor reads. The dangling
	// reference and compaction legs then run on the survivors.
	if _, err := ckpt.GCStore(fs, 2); err != nil {
		return nil, fmt.Errorf("gc keep=2: %w", err)
	}
	if faults, err := ckpt.VerifyStore(fs); err != nil || len(faults) != 0 {
		return nil, fmt.Errorf("gc'd chain did not verify (liveness must be transitive): faults=%v err=%v", faults, err)
	}
	if _, err := restartEverySealed(o, algo, "gc-survivors", fs, golden, factory); err != nil {
		return nil, err
	}
	if ref, _, err = newestDependencies(fs); err != nil {
		return nil, err
	}

	// The newest survivor that reads an earlier epoch is compacted: the
	// newest itself unless its capture caught every rank changed (one that
	// lands after every rank finished). A chain that stored what its row
	// asks for has one; a row that asks for nothing (a churny workload) may
	// leave nothing to unseal or compact.
	deep, err := newestReadingEarlier(fs)
	if err != nil {
		return nil, err
	}
	if deep < 0 || ref == nil {
		if row.stored != nil {
			return nil, fmt.Errorf("no surviving %s epoch reuses a shard of an earlier one", rpt.TestName)
		}
		return rpt, nil
	}
	if err := verifyDanglingRefAttributed(o, algo, fs, factory, ref); err != nil {
		return nil, err
	}
	if err := verifyCompaction(o, algo, fs, deep, golden, factory, rpt); err != nil {
		return nil, err
	}
	return rpt, nil
}

// newestReadingEarlier returns the newest sealed epoch whose restart reads
// an earlier epoch, or -1.
func newestReadingEarlier(fs *ckpt.FileStore) (int, error) {
	epochs, err := fs.Epochs()
	if err != nil {
		return -1, err
	}
	for i := len(epochs) - 1; i >= 0; i-- {
		man, err := fs.GetManifest(epochs[i])
		if err != nil {
			return -1, err
		}
		if len(ckpt.ReadSetOf(man)) > 1 {
			return epochs[i], nil
		}
	}
	return -1, nil
}

// golden runs the row's workload uninterrupted and returns the report whose
// digest every restart must reproduce, and the factory that built it.
func (row *chainRow) golden(o *Options, algo string) (*rt.Report, func(int) rt.App, error) {
	if err := notRunnable(row.wl, algo); err != nil {
		return nil, nil, err
	}
	if row.shape == nil {
		rep, factory, err := adaptedGolden(o, row.wl, algo)
		return rep, factory, err
	}
	cfg := *row.shape
	if cfg.HotRanks >= o.Ranks {
		cfg.HotRanks = 1
	}
	factory := func(rank int) rt.App { return apps.NewStraggler(cfg, rank) }
	rep, err := runGolden(o, algo, factory)
	return rep, factory, err
}

// planName names a chain's storage plan, as reports and errors print it.
func planName(p rt.CkptPlan) string {
	mode, reuse := "sync", "full"
	if p.Async {
		mode = "async"
	}
	switch {
	case p.CDC:
		reuse = "cdc"
	case p.Delta:
		reuse = "delta"
	case p.Incremental:
		reuse = "incremental"
	}
	return mode + "-" + reuse
}

// checkCaptures holds every capture of a chain to what its plan promises.
func checkCaptures(hist []ckpt.CheckpointStats, plan rt.CkptPlan) error {
	if len(hist) < minEpochs {
		return fmt.Errorf("only %d captures (want >= %d)", len(hist), minEpochs)
	}
	for i := range hist {
		st := &hist[i]
		switch {
		case math.Abs(st.StallVT+st.OverlapVT-st.WriteVT) > 1e-9:
			return fmt.Errorf("capture %d: stall %g + overlap %g != write %g", i, st.StallVT, st.OverlapVT, st.WriteVT)
		case !plan.Async && st.OverlapVT != 0:
			return fmt.Errorf("capture %d: a synchronous capture overlapped %gs of its write", i, st.OverlapVT)
		case st.PeakEncodeBytes <= 0 && st.FreshShards > 0:
			return fmt.Errorf("capture %d wrote %d fresh shards with no encode peak", i, st.FreshShards)
		case st.DeltaBytes > st.FreshBytes || st.CDCBytes > st.FreshBytes:
			return fmt.Errorf("capture %d: delta %d B or cdc %d B exceed fresh %d B (must be a subset)",
				i, st.DeltaBytes, st.CDCBytes, st.FreshBytes)
		case !plan.Incremental && st.ReusedShards != 0:
			return fmt.Errorf("capture %d: a plan without reuse reused %d shards", i, st.ReusedShards)
		case !plan.Delta && st.DeltaShards != 0:
			return fmt.Errorf("capture %d: a plan without page deltas stored %d", i, st.DeltaShards)
		case !plan.CDC && st.CDCShards != 0:
			return fmt.Errorf("capture %d: a plan without chunking stored %d cdc shards", i, st.CDCShards)
		}
	}
	return nil
}

// runChain runs the workload with periodic captures under the storage plan
// shape into a fresh FileStore at dir, and checks the final digest.
func runChain(o *Options, algo string, goldenRep *rt.Report, factory func(int) rt.App,
	dir string, shape rt.CkptPlan) (*rt.Report, *ckpt.FileStore, error) {
	fs, err := ckpt.NewFileStore(dir)
	if err != nil {
		return nil, nil, err
	}
	// chainCaptures periodic captures, spread over the golden run.
	plan := shape
	plan.AtStep = int(goldenRep.RankSteps[0] / int64(chainCaptures+2))
	plan.Every = goldenRep.RuntimeVT / float64(chainCaptures+2)
	plan.Mode, plan.Store = ckpt.ContinueAfterCapture, fs
	cfg := baseConfig(o, algo)
	cfg.Checkpoint = &plan
	rep, err := rt.Run(cfg, factory)
	if err != nil {
		return nil, nil, fmt.Errorf("%s chain: %w", planName(shape), err)
	}
	if !rep.Completed {
		return nil, nil, fmt.Errorf("%s chain did not complete", planName(shape))
	}
	if rep.StateDigest != goldenRep.StateDigest {
		return nil, nil, fmt.Errorf("%s chain diverged from golden: %.12s != %.12s",
			planName(shape), rep.StateDigest, goldenRep.StateDigest)
	}
	return rep, fs, nil
}

// restartEverySealed restarts the job from every sealed epoch of the store
// and checks each restarted digest against the golden one.
func restartEverySealed(o *Options, algo, label string, fs *ckpt.FileStore,
	golden string, factory func(int) rt.App) (int, error) {
	epochs, err := fs.Epochs()
	if err != nil {
		return 0, err
	}
	for _, e := range epochs {
		if _, err := restartGolden(o, algo, fs, e, golden, factory); err != nil {
			return 0, fmt.Errorf("%s: %w", label, err)
		}
		o.Logf("%s: restart from epoch %d: digest ok", label, e)
	}
	return len(epochs), nil
}

// restartGolden restarts from one sealed epoch and checks the digest.
func restartGolden(o *Options, algo string, fs *ckpt.FileStore, epoch int,
	golden string, factory func(int) rt.App) (*rt.Report, error) {
	rep, err := rt.RestartFromStore(baseConfig(o, algo), fs, epoch, factory)
	if err != nil {
		return nil, fmt.Errorf("restart from epoch %d: %w", epoch, err)
	}
	if !rep.Completed {
		return nil, fmt.Errorf("restart from epoch %d did not complete", epoch)
	}
	if rep.StateDigest != golden {
		return nil, fmt.Errorf("restart from epoch %d diverged: digest %.12s != golden %.12s",
			epoch, rep.StateDigest, golden)
	}
	return rep, nil
}

// dependency is an object stored in an earlier epoch that an entry of a
// later epoch reads: the object itself, for a reused shard, or one of its
// sources, for a partial object (a page delta's base, a chunk's home).
type dependency struct {
	epoch, rank int // the reading entry
	obj         ckpt.ShardSource
	phrase      string // what a restart's error calls the damaged object
}

// newestDependencies returns the newest reused shard and the newest partial
// object's source the store's chain holds, each nil if there is none.
func newestDependencies(fs *ckpt.FileStore) (ref, src *dependency, err error) {
	epochs, err := fs.Epochs()
	if err != nil {
		return nil, nil, err
	}
	for i := len(epochs) - 1; i >= 0 && (ref == nil || src == nil); i-- {
		man, err := fs.GetManifest(epochs[i])
		if err != nil {
			return nil, nil, err
		}
		for j := range man.Shards {
			si := &man.Shards[j]
			if si.RefEpoch != man.Epoch {
				if ref == nil {
					ref = &dependency{man.Epoch, si.Rank, ckpt.ShardSource{Epoch: si.RefEpoch, Rank: si.Rank},
						fmt.Sprintf("stored in epoch %d", si.RefEpoch)}
				}
			} else if _, srcs := si.Sources(); src == nil && len(srcs) > 0 && srcs[0].Epoch != man.Epoch {
				src = &dependency{man.Epoch, si.Rank, srcs[0],
					fmt.Sprintf("source shard in epoch %d corrupted", srcs[0].Epoch)}
			}
		}
	}
	return ref, src, nil
}

// reads reports whether an epoch's entry for rank reads obj's bytes: it is
// obj, a reference to it, or a partial object — or a reference to one — with
// obj among its sources.
func reads(fs *ckpt.FileStore, epoch, rank int, obj ckpt.ShardSource) bool {
	man, err := fs.GetManifest(epoch)
	if err != nil {
		return false
	}
	for i := range man.Shards {
		si := &man.Shards[i]
		if si.Rank != rank {
			continue
		}
		_, srcs := si.Sources()
		return si.RefEpoch == obj.Epoch && si.Rank == obj.Rank ||
			slices.ContainsFunc(srcs, func(s ckpt.ShardSource) bool { return s.Epoch == obj.Epoch && s.Rank == obj.Rank })
	}
	return false
}

// verifyDamageAttributed flips a byte of the dependency's object and asserts
// that restarting the reading epoch fails naming the epoch, the rank and the
// damaged object, and that every fault VerifyStore reports is an entry that
// reads the object, the object's own among them. The object is restored.
func verifyDamageAttributed(o *Options, algo string, fs *ckpt.FileStore, factory func(int) rt.App, d *dependency) error {
	path := fs.ShardPath(d.obj.Epoch, d.obj.Rank)
	pristine, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the object epoch %d reads: %w", d.epoch, err)
	}
	blob := slices.Clone(pristine)
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	_, rerr := rt.RestartFromStore(baseConfig(o, algo), fs, d.epoch, factory)
	faults, verr := ckpt.VerifyStore(fs)
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		return err
	}
	if rerr == nil {
		return fmt.Errorf("restart from epoch %d succeeded over a damaged object of epoch %d rank %d",
			d.epoch, d.obj.Epoch, d.obj.Rank)
	}
	for _, want := range []string{fmt.Sprintf("epoch %d", d.epoch), fmt.Sprintf("rank %d", d.rank), d.phrase} {
		if !strings.Contains(rerr.Error(), want) {
			return fmt.Errorf("restart error %q does not attribute %q", rerr, want)
		}
	}
	if verr != nil {
		return verr
	}
	own := false
	for _, f := range faults {
		if !reads(fs, f.Epoch, f.Rank, d.obj) {
			return fmt.Errorf("fault misattributed: %+v does not read the damaged object of epoch %d rank %d",
				f, d.obj.Epoch, d.obj.Rank)
		}
		own = own || f.Rank == d.obj.Rank && f.RefEpoch == d.obj.Epoch
	}
	if !own {
		return fmt.Errorf("store verify did not name the damaged object of epoch %d rank %d: %v",
			d.obj.Epoch, d.obj.Rank, faults)
	}
	o.Logf("damage attributed: epoch %d rank %d read from epoch %d rank %d (%s)",
		d.epoch, d.rank, d.obj.Epoch, d.obj.Rank, d.phrase)
	return nil
}

// verifyCompaction compacts an epoch that reads earlier ones, then collects
// keeping 1: one epoch must be left — the compacted one — in one directory,
// restarting into the golden state at exactly the depth-1 read price, below
// the chain's.
func verifyCompaction(o *Options, algo string, fs *ckpt.FileStore, deep int, golden string,
	factory func(int) rt.App, rpt *ChainReport) error {
	epochs, err := fs.Epochs()
	if err != nil {
		return err
	}
	pre, err := restartGolden(o, algo, fs, deep, golden, factory)
	if err != nil {
		return fmt.Errorf("before compaction: %w", err)
	}
	newMan, st, err := ckpt.CompactChain(fs, deep, nil)
	if err != nil {
		return fmt.Errorf("compacting epoch %d: %w", deep, err)
	}
	if st == nil {
		return fmt.Errorf("compaction of epoch %d, which reads earlier epochs, was a no-op", deep)
	}
	gc, err := ckpt.GCStore(fs, 1)
	if err != nil {
		return fmt.Errorf("gc after compaction: %w", err)
	}
	if gc.ReclaimedBytes <= 0 || gc.DeletedEpochs != len(epochs) {
		return fmt.Errorf("gc after compaction deleted %d epochs and reclaimed %d B, want the whole %d-epoch chain",
			gc.DeletedEpochs, gc.ReclaimedBytes, len(epochs))
	}
	left, err := fs.Epochs()
	if err != nil {
		return err
	}
	if len(left) != 1 || left[0] != newMan.Epoch {
		return fmt.Errorf("store holds epochs %v after gc, want only the compacted %d", left, newMan.Epoch)
	}
	if ents, err := os.ReadDir(fs.Root); err != nil || len(ents) != 1 {
		return fmt.Errorf("store root holds %d entries (err %v), want only the compacted epoch's directory", len(ents), err)
	}
	if faults, err := ckpt.VerifyStore(fs); err != nil || len(faults) != 0 {
		return fmt.Errorf("compacted store did not verify: faults=%v err=%v", faults, err)
	}
	post, err := restartGolden(o, algo, fs, newMan.Epoch, golden, factory)
	if err != nil {
		return fmt.Errorf("after compaction: %w", err)
	}
	reads := ckpt.ReadSetOf(newMan)
	if len(reads) != 1 {
		return fmt.Errorf("compacted epoch's read set spans %d epochs, want 1", len(reads))
	}
	cfg := baseConfig(o, algo)
	depth1 := netmodel.New(cfg.Params, cfg.PPN).RestartReadTime(reads[0].Bytes, (cfg.Ranks+cfg.PPN-1)/cfg.PPN)
	if math.Abs(post.RestartReadVT-depth1) > 1e-12*math.Max(depth1, 1) {
		return fmt.Errorf("compacted restart read %.9gs != depth-1 cost %.9gs", post.RestartReadVT, depth1)
	}
	if post.RestartReadVT >= pre.RestartReadVT {
		return fmt.Errorf("compaction did not shrink the restart read (%.4gs -> %.4gs)", pre.RestartReadVT, post.RestartReadVT)
	}
	rpt.CompactedEpoch, rpt.DeletedEpochs, rpt.ReclaimedBytes = newMan.Epoch, gc.DeletedEpochs, gc.ReclaimedBytes
	rpt.ReadVTBefore, rpt.ReadVTAfter = pre.RestartReadVT, post.RestartReadVT
	return nil
}

// verifyDanglingRefAttributed unseals the epoch a reused shard is stored in
// by removing its manifest, and asserts that VerifyStore names that epoch
// and that restarting the reusing epoch fails saying it is not sealed. The
// manifest is restored.
func verifyDanglingRefAttributed(o *Options, algo string, fs *ckpt.FileStore, factory func(int) rt.App, ref *dependency) error {
	path := fs.ManifestPath(ref.obj.Epoch)
	pristine, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	faults, verr := ckpt.VerifyStore(fs)
	_, rerr := rt.RestartFromStore(baseConfig(o, algo), fs, ref.epoch, factory)
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		return err
	}
	if verr != nil {
		return fmt.Errorf("verify of a dangling-ref store must attribute, not fail: %w", verr)
	}
	if !slices.ContainsFunc(faults, func(f ckpt.StoreFault) bool { return f.RefEpoch == ref.obj.Epoch }) {
		return fmt.Errorf("no fault names the unsealed epoch %d: %v", ref.obj.Epoch, faults)
	}
	if rerr == nil {
		return fmt.Errorf("restart from epoch %d succeeded over a dangling reference to epoch %d", ref.epoch, ref.obj.Epoch)
	}
	for _, want := range []string{fmt.Sprintf("references epoch %d", ref.obj.Epoch), "not sealed"} {
		if !strings.Contains(rerr.Error(), want) {
			return fmt.Errorf("restart error %q does not attribute %q", rerr, want)
		}
	}
	o.Logf("dangling reference attributed: epoch %d references unsealed epoch %d", ref.epoch, ref.obj.Epoch)
	return nil
}
