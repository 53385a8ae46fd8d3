package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// tmpRoot is where chains make their FileStore directories. It stays inside
// the checkout so the benchmark writes nowhere else, and it is the process's
// own, so that two runs in one checkout do not remove each other's stores.
var tmpRoot = filepath.Join(".bench_build", "stores", strconv.Itoa(os.Getpid()))

// instance is one workload set up for one seed: the program, its references
// and what the uninterrupted runs measured.
type instance struct {
	w       *workload
	factory func(rank int) rt.App
	model   *netmodel.Model
	nodes   int

	golden   string  // StateDigest of the uninterrupted CC run
	nativeVT float64 // RuntimeVT of the uninterrupted native run
	ccVT     float64 // RuntimeVT of the uninterrupted CC run
}

func (in *instance) config(algo string, plan *rt.CkptPlan) rt.Config {
	return rt.Config{
		Ranks: in.w.ranks, PPN: in.w.ppn,
		Params: netmodel.PerlmutterLike(), Algorithm: algo, Checkpoint: plan,
	}
}

// warmupLegs is the length of the discarded warm-up chain: long enough to
// page in the code and grow the heap to the leg's working set.
const warmupLegs = 1

// setUp builds the workload's program from the seed, runs it uninterrupted
// under native and under CC, and runs the discarded warm-up chain. It is
// what setup_s times.
func setUp(w *workload, seed uint64) (*instance, error) {
	in := &instance{
		w:       w,
		factory: w.factory(w, seed),
		model:   netmodel.New(netmodel.PerlmutterLike(), w.ppn),
		nodes:   (w.ranks + w.ppn - 1) / w.ppn,
	}
	native, err := rt.Run(in.config(rt.AlgoNative, nil), in.factory)
	if err != nil {
		return nil, fmt.Errorf("%s: native run: %w", w.name, err)
	}
	cc, err := rt.Run(in.config(rt.AlgoCC, nil), in.factory)
	if err != nil {
		return nil, fmt.Errorf("%s: golden run: %w", w.name, err)
	}
	if !cc.Completed || cc.StateDigest == "" {
		return nil, fmt.Errorf("%s: golden run produced no digest", w.name)
	}
	in.golden, in.nativeVT, in.ccVT = cc.StateDigest, native.RuntimeVT, cc.RuntimeVT

	warm, err := runChain(in, warmupLegs, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up chain: %w", w.name, err)
	}
	warm.close()
	if warm.misses > 0 {
		return nil, fmt.Errorf("%s: warm-up chain: %s", w.name, warm.firstErr)
	}
	return in, nil
}

// legClock carries the two host times the app wrapper stamps from outside
// the program. Each is written by one rank goroutine and read by the driver
// after the run has joined them.
type legClock struct {
	pending    atomic.Int64 // ranks that have not finished Restore yet
	restoredAt time.Time    // the last rank's Restore returned
	triggerAt  time.Time    // rank 0 finished the step that raises the request
	// The process's CPU seconds at the same two moments.
	restoredCPU, triggerCPU float64
}

// legGate makes leg 0 end at the same place on every run. Ranks that share no
// communicator with rank 0 (the straggler's cold ranks) progress as the host
// schedules them, so without it leg 0 sometimes captures them one step short
// of finishing and the chain gets an extra fresh epoch. Rank 0 ends its last
// step of the leg only when every other rank has done as many steps or has
// finished. A rank's last blocking call needs nothing from rank 0 that rank
// 0 has not already given, so the wait cannot deadlock; the timeout is for a
// rank that failed.
type legGate struct {
	left atomic.Int64
	open chan struct{}
}

const gateTimeout = 3 * time.Second

func newLegGate(ranks int) *legGate {
	g := &legGate{open: make(chan struct{})}
	g.left.Store(int64(ranks - 1))
	return g
}

// stampApp wraps a rank's app to stamp the leg clock and, when tracing, to
// time every Restore, Step and SnapshotTo.
type stampApp struct {
	rt.App
	rank  int
	steps int // the plan's AtStep
	clock *legClock
	gate  *legGate // leg 0 only
	timed bool     // tracing: keep the per-call times below

	done          int // steps this rank completed in this leg
	restore, snap interval
	stepSpan      interval // first Step's start to last Step's end
	stepBusy      time.Duration
	snapBytes     int64
	restoreBytes  int64
}

type interval struct{ start, end time.Time }

func (a *stampApp) Restore(data []byte) error {
	if a.timed {
		a.restore.start = time.Now()
		a.restoreBytes = int64(len(data))
	}
	err := a.App.Restore(data)
	a.restore.end = time.Now()
	if a.clock.pending.Add(-1) == 0 { // this rank is the last one restored
		a.clock.restoredAt, a.clock.restoredCPU = a.restore.end, cpuSeconds()
	}
	return err
}

func (a *stampApp) Step(env *rt.Env) (bool, error) {
	var start time.Time
	if a.timed {
		start = time.Now()
		if a.done == 0 {
			a.stepSpan.start = start
		}
	}
	more, err := a.App.Step(env)
	a.done++
	if a.timed {
		a.stepSpan.end = time.Now()
		a.stepBusy += a.stepSpan.end.Sub(start)
	}
	if a.gate != nil && a.rank != 0 && (a.done == a.steps || !more && a.done < a.steps) {
		if a.gate.left.Add(-1) == 0 {
			close(a.gate.open)
		}
	}
	if a.rank == 0 && a.done == a.steps {
		if a.gate != nil {
			select {
			case <-a.gate.open:
			case <-time.After(gateTimeout):
			}
		}
		a.clock.triggerAt, a.clock.triggerCPU = time.Now(), cpuSeconds()
	}
	return more, err
}

// SnapshotTo forwards rt.StreamSnapshotter, which every benchmarked app
// implements, so the capture path stays the streaming one.
func (a *stampApp) SnapshotTo(w io.Writer) error {
	if !a.timed {
		return a.App.(rt.StreamSnapshotter).SnapshotTo(w)
	}
	cw := &countingWriter{w: w}
	a.snap.start = time.Now()
	err := a.App.(rt.StreamSnapshotter).SnapshotTo(cw)
	a.snap.end = time.Now()
	a.snapBytes = cw.n
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// legSample is what one timed leg measured.
type legSample struct {
	leg, restart, advance, ckpt float64 // wall-clock seconds
	// CPU seconds of the process over the same intervals.
	legCPU, restartCPU, ckptCPU float64
	// scale turns the leg's CPU seconds into seconds of the nominal host.
	scale      float64
	calls      int64 // collective + p2p calls the leg simulated
	stats      ckpt.CheckpointStats
	readVT     float64
	allocBytes uint64  // heap bytes allocated during the leg
	loadS      float64 // traced legs: seconds in ckpt.LoadJobImage
	loadBytes  int64   // traced legs: logical bytes it loaded
}

// chain is one run of leg 0, the timed legs, the final restart and the store
// check, on a fresh store.
type chain struct {
	in    *instance
	store ckpt.Store
	dir   string // FileStore directory, "" for a MemStore

	legs      []legSample
	ref       float64 // the newest reading of the reference kernel, CPU seconds a pass
	attempted int     // timed legs + digest check + store check
	firstErr  string
	misses    int

	compactS, gcS       []float64 // driver-side lifecycle calls, host seconds
	gcReclaimed, gcHeld int64     // bytes GC freed ÷ bytes held before it
	storeBytes          int64     // bytes the store holds at chain end
	liveBytes           int64     // logical bytes of the newest epoch
	newest              *ckpt.Manifest
	lastImage           *ckpt.JobImage // the last timed leg's captured image
	lastApps            []*stampApp    // and its apps, parked at the capture
}

func (c *chain) miss(format string, args ...any) {
	c.misses++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// calibrate collects the heap and takes a reading of the reference kernel,
// the mean of the workload's refPasses passes. It is called between legs, so
// that every timed leg starts from a collected heap, as a real allocation, a
// new process, does, and has a reading right before it and one right after.
func (c *chain) calibrate() {
	runtime.GC()
	c.ref = 0
	for i := 0; i < c.in.w.refPasses; i++ {
		c.ref += refPass() / float64(c.in.w.refPasses)
	}
}

// close removes the chain's store directory and lets go of the last leg's
// image and apps, a copy of the whole state each, so that a run's finished
// chains do not pile them up.
func (c *chain) close() {
	if c.dir != "" {
		_ = os.RemoveAll(c.dir) // best effort: main removes tmpRoot at exit
	}
	c.lastImage, c.lastApps = nil, nil
}

func newStore(w *workload) (ckpt.Store, string, error) {
	if !w.fileStore {
		return ckpt.NewMemStore(), "", nil
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(tmpRoot, w.name+"-*")
	if err != nil {
		return nil, "", err
	}
	store, err := ckpt.NewFileStore(dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, "", err
	}
	return store, dir, nil
}

// runChain runs one chain of legs timed legs. Leg errors are counted as
// misses and the chain goes on where it can; only a failure to make the
// store is returned as an error. tr, when non-nil, makes every leg a traced
// one. The caller closes the chain.
func runChain(in *instance, legs int, tr *tracer) (*chain, error) {
	store, dir, err := newStore(in.w)
	if err != nil {
		return nil, err
	}
	c := &chain{in: in, store: store, dir: dir, attempted: legs + 2}

	plan := in.w.plan
	plan.AtStep, plan.Mode, plan.Store, plan.Async = in.w.steps, ckpt.ExitAfterCapture, store, true

	gate := newLegGate(in.w.ranks)
	rep, err := rt.Run(in.config(rt.AlgoCC, &plan), func(rank int) rt.App {
		return &stampApp{App: in.factory(rank), rank: rank, steps: in.w.steps, clock: &legClock{}, gate: gate}
	})
	if err != nil || rep.Checkpoint == nil || rep.Completed {
		c.miss("leg 0 sealed no epoch: %v", err)
		c.misses = c.attempted
		return c, nil
	}
	c.calibrate()
	for k := 1; k <= legs; k++ {
		c.timedLeg(k, &plan, tr)
		if in.w.lifecycleEvery > 0 && k%in.w.lifecycleEvery == 0 {
			c.lifecycle()
			c.calibrate()
		}
	}

	// The chain must end where the uninterrupted run did.
	final, err := rt.RestartFromStore(in.config(rt.AlgoCC, nil), store, -1, in.factory)
	if err != nil || !final.Completed || final.StateDigest != in.golden {
		c.miss("final restart: digest %q, want %q (err %v)", digestOf(final), in.golden, err)
	}
	faults, err := ckpt.VerifyStore(store)
	if err != nil || len(faults) > 0 {
		c.miss("store check: %d faults (err %v)", len(faults), err)
	}
	c.measureStore()
	return c, nil
}

// heapAllocated is the cumulative count of heap bytes allocated so far.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func digestOf(rep *rt.Report) string {
	if rep == nil {
		return ""
	}
	return rep.StateDigest
}

// timedLeg runs one allocation leg and splits it at the wrapper's stamps. A
// traced leg makes the two public calls rt.RestartFromStore is composed of,
// so each can carry its own span.
func (c *chain) timedLeg(k int, plan *rt.CkptPlan, tr *tracer) {
	w := c.in.w
	clock := &legClock{}
	clock.pending.Store(int64(w.ranks))
	wrapped := make([]*stampApp, w.ranks)
	factory := func(rank int) rt.App {
		a := &stampApp{App: c.in.factory(rank), rank: rank, steps: w.steps, clock: clock, timed: tr != nil}
		wrapped[rank] = a // each rank goroutine writes its own slot
		return a
	}
	cfg := c.in.config(rt.AlgoCC, plan)
	before, _ := ckpt.LatestEpoch(c.store)
	refBefore := c.ref

	var (
		rep       *rt.Report
		err       error
		s         legSample
		firstCall int // traced: index of the leg's first span
		restartID int // traced: the rt.Restart span
	)
	allocated := heapAllocated()
	start, startCPU := time.Now(), cpuSeconds()
	if tr == nil {
		rep, err = rt.RestartFromStore(cfg, c.store, -1, factory)
	} else {
		tr.leg++
		firstCall = len(tr.spans)
		rep, restartID, err = c.tracedRestart(cfg, before, factory, tr, &s)
	}
	end, endCPU := time.Now(), cpuSeconds()
	allocated = heapAllocated() - allocated
	c.calibrate()

	switch {
	case err != nil:
		c.miss("leg %d: %v", k, err)
	case rep.Checkpoint == nil || rep.Completed || rep.Checkpoint.Epoch <= before:
		c.miss("leg %d returned without a new sealed epoch (completed %v)", k, rep.Completed)
	case clock.restoredAt.IsZero() || clock.triggerAt.IsZero():
		c.miss("leg %d: the app wrapper was never stamped", k)
	default:
		s.leg = end.Sub(start).Seconds()
		s.restart = clock.restoredAt.Sub(start).Seconds()
		s.advance = clock.triggerAt.Sub(clock.restoredAt).Seconds()
		s.ckpt = end.Sub(clock.triggerAt).Seconds()
		s.scale = hostScale(refBefore, c.ref)
		s.legCPU = endCPU - startCPU
		s.restartCPU = clock.restoredCPU - startCPU
		s.ckptCPU = endCPU - clock.triggerCPU
		s.calls = rep.Counters.CollCalls() + rep.Counters.P2PCalls()
		s.stats = *rep.Checkpoint
		s.allocBytes = allocated
		if tr == nil {
			s.readVT = rep.RestartReadVT
		}
		c.legs = append(c.legs, s)
		c.lastImage, c.lastApps = rep.Image, wrapped
	}
	if tr != nil {
		tr.tracePhases(firstCall, start, end, restartID, clock, wrapped)
	}
}

// lifecycle is the driver-side retention pass of the in-place workload:
// compact the chain into a self-contained epoch, then keep the newest two.
func (c *chain) lifecycle() {
	latest, err := ckpt.LatestEpoch(c.store)
	if err != nil {
		c.miss("lifecycle: %v", err)
		return
	}
	t := time.Now()
	if _, _, err := ckpt.CompactChain(c.store, latest, nil); err != nil {
		c.miss("compacting at epoch %d: %v", latest, err)
		return
	}
	c.compactS = append(c.compactS, time.Since(t).Seconds())
	held := c.heldBytes()
	t = time.Now()
	gc, err := ckpt.GCStore(c.store, 2)
	if err != nil {
		c.miss("gc after epoch %d: %v", latest, err)
		return
	}
	c.gcS = append(c.gcS, time.Since(t).Seconds())
	c.gcReclaimed += gc.ReclaimedBytes
	c.gcHeld += held
}

// measureStore records what the store holds at chain end against the
// logical size of the newest epoch.
func (c *chain) measureStore() {
	latest, err := ckpt.LatestEpoch(c.store)
	if err != nil {
		return
	}
	man, err := c.store.GetManifest(latest)
	if err != nil {
		return
	}
	c.newest = man
	for i := range man.Shards {
		c.liveBytes += man.Shards[i].RawSize
	}
	c.storeBytes = c.heldBytes()
}

// heldBytes is the stored size of everything in the store: the files of a
// FileStore, or for a MemStore every manifest record plus the shard objects
// each epoch physically holds.
func (c *chain) heldBytes() int64 {
	var held int64
	if c.dir != "" {
		_ = filepath.WalkDir(c.dir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				if info, err := d.Info(); err == nil {
					held += info.Size()
				}
			}
			return nil
		})
		return held
	}
	epochs, _ := c.store.Epochs()
	for _, e := range epochs {
		man, err := c.store.GetManifest(e)
		if err != nil {
			continue
		}
		if rec, err := ckpt.EncodeManifestRecord(man); err == nil {
			held += int64(len(rec))
		}
		for i := range man.Shards {
			if man.Shards[i].RefEpoch == man.Epoch {
				held += man.Shards[i].Size
			}
		}
	}
	return held
}
