package rt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mana/internal/ckpt"
	"mana/internal/core"
	"mana/internal/mpi"
	"mana/internal/netmodel"
	"mana/internal/trace"
	"mana/internal/twopc"
)

// Algorithm names accepted by Config.Algorithm.
const (
	AlgoNative = "native"
	Algo2PC    = "2pc"
	AlgoCC     = "cc"
)

// CkptPlan schedules checkpointing during a run: the coordinator's plan,
// under the name Config has always used for it.
type CkptPlan = ckpt.Plan

// Config describes one job.
type Config struct {
	Ranks      int
	PPN        int // ranks per node
	Params     netmodel.Params
	Algorithm  string // AlgoNative, Algo2PC, or AlgoCC
	Checkpoint *CkptPlan

	// StallTimeout configures the deadlock watchdog: if no simulator
	// progress happens for this long the run is aborted with a per-rank
	// wait-site diagnostic instead of hanging. Zero selects
	// mpi.DefaultStallTimeout; a negative value disables the watchdog.
	StallTimeout time.Duration
}

// Report summarizes one run.
type Report struct {
	App       string
	Algorithm string
	Ranks     int
	PPN       int

	// RuntimeVT is the job's virtual makespan (max rank clock at exit).
	RuntimeVT float64
	Counters  trace.Counters
	Rates     trace.Rates

	// Checkpoint results (nil if no checkpoint was captured). With periodic
	// checkpointing, Checkpoint/Image describe the most recent capture and
	// CheckpointHistory lists them all. Store is the store every capture
	// sealed into (the plan's, or the MemStore a plan without one gets):
	// RestartFromStore(cfg, rep.Store, rep.Checkpoint.Epoch, factory)
	// restarts from the most recent capture.
	Checkpoint        *ckpt.CheckpointStats
	Image             *ckpt.JobImage
	CheckpointHistory []ckpt.CheckpointStats
	Store             ckpt.Store

	// Completed is false when the job exited at a checkpoint (ExitAfterCapture).
	Completed bool

	// RestartReadVT is the modeled storage read time of the restart this run
	// began from (zero for runs started fresh, and for Restart, which reads
	// nothing): the fixed lower-half relaunch plus the read fan-in over the
	// epoch's resolved shard set — every referenced older epoch costs an
	// extra open and per-shard seeks (netmodel.RestartReadCost). Like the
	// checkpoint write costs it is a modeled quantity, not charged to the
	// rank clocks.
	RestartReadVT float64

	// RankSteps counts the application steps each rank completed; the
	// conformance engine derives its trigger sweep from rank 0's count.
	RankSteps []int64

	// StateDigest is a canonical hash of every rank's final application
	// snapshot, set only when the job ran to completion without errors.
	// Two runs of the same deterministic program — with or without a
	// checkpoint/restart in between — must produce identical digests; this
	// is the equality the conformance engine checks.
	StateDigest string
}

// newAlgorithm wires up the requested algorithm.
func newAlgorithm(name string, coord *ckpt.Coordinator) (ckpt.Algorithm, error) {
	switch name {
	case AlgoNative, "":
		a := ckpt.NewNative()
		coord.SetAlgorithm(a)
		return a, nil
	case Algo2PC:
		return twopc.New(coord), nil
	case AlgoCC:
		return core.New(coord), nil
	}
	return nil, fmt.Errorf("rt: unknown algorithm %q", name)
}

func (cfg *Config) validate() error {
	if cfg.Ranks <= 0 {
		return fmt.Errorf("rt: invalid rank count %d", cfg.Ranks)
	}
	if cfg.PPN <= 0 {
		return fmt.Errorf("rt: invalid ranks-per-node %d", cfg.PPN)
	}
	if cfg.Checkpoint != nil && (cfg.Algorithm == AlgoNative || cfg.Algorithm == "") {
		return fmt.Errorf("rt: the native baseline cannot checkpoint")
	}
	return nil
}

// Run executes factory-created apps, one per rank, to completion (or to a
// checkpoint-exit). It is the moral equivalent of mpirun under MANA.
func Run(cfg Config, factory func(rank int) App) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := mpi.NewWorld(cfg.Ranks, netmodel.New(cfg.Params, cfg.PPN))
	coord, err := ckpt.NewCoordinator(w, cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	if _, err := newAlgorithm(cfg.Algorithm, coord); err != nil {
		return nil, err
	}
	return runJob(cfg, w, coord, factory, nil)
}

// runJob drives the rank goroutines over a prepared world. images, when
// non-nil, holds per-rank restart images.
func runJob(cfg Config, w *mpi.World, coord *ckpt.Coordinator, factory func(rank int) App, img *ckpt.JobImage) (*Report, error) {
	var (
		wg       sync.WaitGroup
		firstErr error
		errMu    sync.Mutex
		appName  atomic.Value

		// Per-rank results, each written only by its own rank goroutine and
		// read after wg.Wait.
		rankSteps = make([]int64, cfg.Ranks)
		apps      = make([]App, cfg.Ranks)

		// Checkpoint scheduling: the next request time, advanced by Every
		// after each successful request (periodic checkpointing). Both are
		// written under ckptMu; every rank reads them at every step boundary
		// and almost always finds nothing due, so that read takes no lock.
		ckptMu      sync.Mutex
		nextCkptVT  atomic.Uint64 // float64 bits
		atStepFired atomic.Bool
	)
	nextCkptVT.Store(math.Float64bits(math.Inf(1)))
	if cfg.Checkpoint != nil && cfg.Checkpoint.AtStep <= 0 {
		nextCkptVT.Store(math.Float64bits(cfg.Checkpoint.AtVT))
	}
	maybeRequest := func(rank int, now float64, stepsDone int64) {
		plan := cfg.Checkpoint
		due := func() bool {
			if plan.AtStep > 0 && !atStepFired.Load() {
				// Deterministic step-indexed trigger: raised by rank 0 at
				// the boundary after its AtStep-th completed step.
				return rank == 0 && stepsDone >= int64(plan.AtStep)
			}
			return now >= math.Float64frombits(nextCkptVT.Load())
		}
		if !due() {
			return
		}
		ckptMu.Lock()
		defer ckptMu.Unlock()
		if !due() || !coord.RequestCheckpoint(now) {
			return // raised by another rank in the meantime, or one is already pending or capturing
		}
		atStepFired.Store(true)
		next := math.Inf(1)
		if plan.Every > 0 && plan.Mode == ckpt.ContinueAfterCapture {
			next = now + plan.Every
		}
		nextCkptVT.Store(math.Float64bits(next))
	}
	recordErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// Deadlock watchdog: a wedged job aborts with per-rank wait sites and the
	// coordinator's drain state instead of hanging the host until -timeout.
	if cfg.StallTimeout >= 0 {
		stopWatchdog := w.StartWatchdog(cfg.StallTimeout, coord.DebugString)
		defer stopWatchdog()
	}

	// Startup barrier: every rank must have created its protocol instance and
	// finished Setup before any rank starts stepping. Without it, a fast rank
	// can raise a checkpoint request while a slow rank's protocol state does
	// not exist yet — the algorithm's target computation would read a nil
	// rank. Real MPI synchronizes the same way inside MPI_Init.
	var setupWG sync.WaitGroup
	setupWG.Add(cfg.Ranks)
	setupCh := make(chan struct{})
	go func() {
		setupWG.Wait()
		close(setupCh)
	}()

	// Restart barrier: every rank must finish restoring its image — in
	// particular re-injecting its drained in-flight messages — before ANY
	// rank resumes sending. Otherwise a fast-restarting peer's new message
	// could overtake a drained one from the same sender and break the
	// non-overtaking (FIFO) guarantee. Real MANA synchronizes restart the
	// same way before returning control to user code.
	var restoreWG sync.WaitGroup
	restoredCh := make(chan struct{})
	if img != nil {
		restoreWG.Add(cfg.Ranks)
		go func() {
			restoreWG.Wait()
			close(restoredCh)
		}()
	}

	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			var setupOnce sync.Once
			markSetup := func() { setupOnce.Do(setupWG.Done) }
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					markSetup() // never strand peers at the startup barrier
					if err, ok := p.(error); ok && errors.Is(err, errTerminated) {
						return // checkpoint-and-exit unwind
					}
					if ab, ok := p.(mpi.AbortError); ok {
						// The world was torn down (watchdog or a failed
						// peer); the diagnostic error is already recorded
						// by whoever aborted first.
						recordErr(ab.Err)
						coord.FinishRank(rank)
						return
					}
					// Surface rank panics (erroneous MPI programs, contract
					// violations) as run errors rather than crashing the host,
					// and tear down the world so peers blocked on this rank
					// fail fast instead of deadlocking.
					err := fmt.Errorf("rank %d: panic: %v", rank, p)
					recordErr(err)
					w.Abort(err)
					coord.FinishRank(rank)
				}
			}()

			app := factory(rank)
			apps[rank] = app
			if rank == 0 {
				appName.Store(app.Name())
			}
			p := w.Proc(rank)
			proto := coord.Algo.NewRank(p, w.WorldComm(rank))
			env := newEnv(p, proto, coord, app, cfg.Checkpoint != nil)

			hooks := ckpt.RankHooks{
				AppSnapshotTo: app.SnapshotTo,
				ProtoSnapshot: proto.Snapshot,
				ClockVT:       p.Clk.Now,
				SetClock:      p.Clk.Set,
				PendingRecvs:  env.pendingRecvDescs,
			}
			if img != nil {
				// Restart owns the image: the bytes this rank is restored
				// from are the app's to keep, or else its first capture's.
				hooks.Restored = img.Images[rank].App
			}
			coord.RegisterRank(rank, hooks)

			env.inSetup = true
			if err := app.Setup(env); err != nil {
				recordErr(fmt.Errorf("rank %d setup: %w", rank, err))
				w.Abort(err)
				coord.FinishRank(rank)
				return
			}
			env.inSetup = false

			// Join the startup barrier (see above). An abort while waiting
			// means a peer failed during setup.
			markSetup()
			p.SetWaitSite("startup-barrier")
			select {
			case <-setupCh:
			case <-w.AbortChan():
				panic(mpi.AbortError{Err: w.AbortErr()})
			}
			p.SetWaitSite("")

			// Restart path: restore state, synchronize with all ranks, then
			// resume the parked operation.
			if img != nil {
				var once sync.Once
				markRestored := func() { once.Do(restoreWG.Done) }
				defer markRestored() // cover early error paths
				ri := &img.Images[rank]
				err := restoreFromImage(env, app, proto, p, img, ri)
				markRestored()
				if err != nil {
					recordErr(fmt.Errorf("rank %d restore: %w", rank, err))
					w.Abort(err)
					coord.FinishRank(rank)
					return
				}
				p.SetWaitSite("restore-barrier")
				select {
				case <-restoredCh: // all injections visible before anyone resumes
				case <-w.AbortChan():
					panic(mpi.AbortError{Err: w.AbortErr()})
				}
				p.SetWaitSite("")
				if err := resumePending(env, ri); err != nil {
					recordErr(fmt.Errorf("rank %d resume: %w", rank, err))
					w.Abort(err)
					coord.FinishRank(rank)
					return
				}
				if ri.Desc.Kind == ckpt.ParkDone {
					// The rank had already finished when the checkpoint was
					// captured; its restored state is its final state.
					coord.FinishRank(rank)
					return
				}
			}

			for {
				if cfg.Checkpoint != nil {
					maybeRequest(rank, p.Clk.Now(), rankSteps[rank])
				}
				env.stepBoundary()
				if out := proto.AtBoundary(&boundaryDesc); out == ckpt.Terminated {
					return
				}
				more, err := app.Step(env)
				if err != nil {
					recordErr(fmt.Errorf("rank %d step: %w", rank, err))
					w.Abort(err)
					break
				}
				rankSteps[rank]++
				if !more {
					break
				}
			}
			if out := proto.AtBoundary(&ckpt.Descriptor{Kind: ckpt.ParkDone}); out == ckpt.Terminated {
				return
			}
			coord.FinishRank(rank)
		}(r)
	}
	wg.Wait()

	rep := &Report{
		Algorithm: coord.Algo.Name(),
		Ranks:     cfg.Ranks,
		PPN:       cfg.PPN,
		RuntimeVT: w.MaxTime(),
		Completed: !coord.Terminated(),
		RankSteps: rankSteps,
	}
	if n, ok := appName.Load().(string); ok {
		rep.App = n
	}
	for r := 0; r < cfg.Ranks; r++ {
		rep.Counters.Add(w.Proc(r).Ct)
	}
	rep.Rates = trace.RatesOf(&rep.Counters, cfg.Ranks, rep.RuntimeVT)

	// The coordinator accounts padded image sizes at capture time, so the
	// standalone stats and every CheckpointHistory entry already agree.
	image, stats, ckptErr := coord.Result()
	if image != nil {
		rep.Image = image
		rep.Checkpoint = &stats
		rep.CheckpointHistory = coord.History()
		rep.Store = coord.Plan.Store
	}

	// Result has drained every capture, so no chained capture is still
	// calling SnapshotTo on a finished rank: the digest reads each alone.
	errMu.Lock()
	defer errMu.Unlock()
	if rep.Completed && firstErr == nil {
		rep.StateDigest, firstErr = digestOf(apps)
	}
	if image != nil && ckptErr != nil {
		return rep, ckptErr
	}
	return rep, firstErr
}

// boundaryDesc is what every rank passes to AtBoundary between steps. A
// mid-run boundary is not a park point, so the protocols only read its kind
// and one shared value saves an allocation per step.
var boundaryDesc = ckpt.Descriptor{Kind: ckpt.ParkBoundary}

// digestOf hashes every rank's final state into one canonical job digest:
// each rank's snapshot length as 8 bytes, so rank boundaries cannot alias,
// then its bytes. Both come from streaming SnapshotTo — into a counter,
// then into the hash — so no rank's state is copied to be digested.
func digestOf(apps []App) (string, error) {
	h := sha256.New()
	var pfx [8]byte
	for r, app := range apps {
		var n byteCounter
		err := app.SnapshotTo(&n)
		if err == nil {
			binary.LittleEndian.PutUint64(pfx[:], uint64(n))
			h.Write(pfx[:])
			err = app.SnapshotTo(h)
		}
		if err != nil {
			return "", fmt.Errorf("rank %d final snapshot: %w", r, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// byteCounter is an io.Writer that counts what it is given and keeps none.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// Restart rebuilds a job from a checkpoint image — a fresh world (the new
// lower half), replayed Setup, restored upper halves — and runs it to
// completion. It is the second half of RestartFromStore and prices no read:
// the image is already in memory, so the report's RestartReadVT is zero.
//
// The configuration must run the same program shape (rank count and
// algorithm), but the GEOMETRY may differ: a job captured at one PPN can be
// restarted onto a different ranks-per-node placement (and therefore a
// different node count) — MANA's allocation-chaining scenario, where the
// network-agnostic image outlives the allocation it was taken on. Only the
// lower half changes: the storage/network model places ranks on the new
// nodes, while the restored upper halves are placement-free.
//
// Restart takes ownership of img, the way bytes.NewBuffer takes its slice:
// the caller must not use img after the call, whether it succeeds or not.
// Each rank's App bytes — and the capacity past them — go to its app, which
// may keep them as its live state (App.Restore), and otherwise to its first
// capture, which writes its snapshot into them. A caller that wants to read
// or restart from the same image again loads its own copy.
func Restart(cfg Config, img *ckpt.JobImage, factory func(rank int) App) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if img.Ranks != cfg.Ranks {
		return nil, fmt.Errorf("rt: image is %d ranks, config is %d (rank counts must match; PPN may differ)",
			img.Ranks, cfg.Ranks)
	}
	if cfg.Algorithm != img.Algorithm {
		return nil, fmt.Errorf("rt: image was captured under %q, config requests %q",
			img.Algorithm, cfg.Algorithm)
	}
	w := mpi.NewWorld(cfg.Ranks, netmodel.New(cfg.Params, cfg.PPN))
	coord, err := ckpt.NewCoordinator(w, cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	if _, err := newAlgorithm(cfg.Algorithm, coord); err != nil {
		return nil, err
	}
	return runJob(cfg, w, coord, factory, img)
}

// nodesOf returns the node count of a job's placement.
func nodesOf(cfg Config) int { return (cfg.Ranks + cfg.PPN - 1) / cfg.PPN }

// RestartFromStore rebuilds a job from a checkpoint store epoch: the epoch's
// manifest is read, every shard resolved through the reference chain
// (incremental captures record unchanged shards as references into earlier
// epochs), verified, and decoded, and the job restarts through Restart.
// epoch < 0 selects the store's newest sealed epoch.
//
// This is the one restart that prices a read. The report's RestartReadVT
// prices the chain, not a flat image: the read set is the manifest's
// resolved shard fan-in (ckpt.ReadSetOf), so a deep incremental chain
// restarts measurably slower than a fresh full capture of the same bytes.
func RestartFromStore(cfg Config, store ckpt.Store, epoch int, factory func(rank int) App) (*Report, error) {
	if epoch < 0 {
		latest, err := ckpt.LatestEpoch(store)
		if err != nil {
			return nil, err
		}
		epoch = latest
	}
	man, err := store.GetManifest(epoch)
	if err != nil {
		return nil, err
	}
	// LoadJobImage validates chain resolution (checkRefsSealed) before
	// touching any shard: a reference into a missing or unsealed parent epoch
	// fails with one descriptive error, never a mispriced read set or a
	// confusing per-shard fetch failure mid-restore.
	img, err := ckpt.LoadJobImage(store, epoch)
	if err != nil {
		return nil, err
	}
	rep, err := Restart(cfg, img, factory)
	if rep != nil {
		m := netmodel.New(cfg.Params, cfg.PPN) // cfg validated by Restart
		rep.RestartReadVT = m.RestartReadCost(
			netmodel.TierPFS, ckpt.ReadSetOf(man), nodesOf(cfg))
	}
	return rep, err
}

// restoreFromImage restores one rank's upper half: application state,
// protocol state, clock, and the drained in-flight messages. It must
// complete on every rank (the runner's restart barrier) before any rank
// resumes execution.
func restoreFromImage(env *Env, app App, proto ckpt.Protocol, p *mpi.Proc, img *ckpt.JobImage, ri *ckpt.RankImage) error {
	if err := app.Restore(ri.App); err != nil {
		return err
	}
	if err := proto.Restore(ri.Proto); err != nil {
		return err
	}
	// All ranks resume at the common capture time; the restart I/O cost is
	// modeled by the harness (Figure 9), not charged to the job clock.
	p.Clk.Set(img.CaptureVT)

	// Re-inject drained in-flight messages: they are available immediately.
	if len(ri.Inflight) > 0 {
		p.World().InjectDrained(p.Rank(), ri.Inflight, img.CaptureVT)
	}
	return nil
}

// resumePending re-issues whatever operation the rank was parked on.
func resumePending(env *Env, ri *ckpt.RankImage) error {
	switch ri.Desc.Kind {
	case ckpt.ParkPreCollective, ckpt.ParkInBarrier:
		// Re-post receives that were outstanding, then re-issue the pending
		// collective (for 2PC the wrapper re-inserts its barrier first).
		env.repostRecvs(ri.Desc.Recvs)
		if ri.Desc.Coll == nil {
			return fmt.Errorf("image parked %v without a collective descriptor", ri.Desc.Kind)
		}
		env.execCollDesc(ri.Desc.Coll)
		env.stepBoundary()
	case ckpt.ParkInWait:
		ids := env.repostRecvs(ri.Desc.Recvs)
		env.WaitAll(ids...)
		env.stepBoundary()
	case ckpt.ParkBoundary, ckpt.ParkDone, ckpt.ParkNone:
		// Nothing pending.
	default:
		return fmt.Errorf("unknown park kind %v in image", ri.Desc.Kind)
	}
	return nil
}
