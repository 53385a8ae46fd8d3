package ckpt

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// Mode selects what happens after a checkpoint is captured.
type Mode int

// Checkpoint modes.
const (
	// ContinueAfterCapture: the job resumes in place (the common production
	// pattern: periodic checkpoints of a long run).
	ContinueAfterCapture Mode = iota
	// ExitAfterCapture: the job terminates once captured; the returned
	// images are used to restart (chaining resource allocations).
	ExitAfterCapture
)

// Plan schedules checkpointing during a run and says how each capture is
// committed and priced. The coordinator keeps its own copy (Coordinator.Plan).
type Plan struct {
	// AtVT requests the (first) checkpoint when any rank's virtual clock
	// first reaches this time (seconds).
	AtVT float64
	// AtStep, when positive, requests the checkpoint at the boundary where
	// rank 0 has completed exactly AtStep application steps, instead of at a
	// virtual time. Step counts are a deterministic property of the program,
	// so two runs with the same AtStep raise the request at the identical
	// point in rank 0's execution — the trigger the conformance engine
	// sweeps. AtStep takes precedence over AtVT.
	AtStep int
	// Every, when positive, requests further checkpoints at this virtual
	// period after each capture — the production pattern of periodic
	// checkpoints during a long run. Only meaningful with
	// ContinueAfterCapture.
	Every float64
	// Mode selects continue-in-place or exit-for-restart.
	Mode Mode
	// PaddedBytesPerRank, when positive, overrides the measured image size
	// in the storage model (to reproduce the paper's image sizes). With
	// periodic checkpointing every capture is padded, so Checkpoint,
	// CheckpointHistory, and the charged write times all agree.
	PaddedBytesPerRank int64

	// Async enables the staged pipeline's overlapped mode: the job resumes
	// as soon as all ranks are snapshotted, paying only the storage open
	// latency, while shard encode and store commit run behind execution
	// (CheckpointStats.OverlapVT instead of StallVT).
	Async bool
	// Incremental enables shard reuse across the Store's epochs: ranks
	// whose state did not change since the previous committed capture are
	// recorded as references instead of re-written.
	Incremental bool
	// Delta enables sub-rank page deltas on top of Incremental: capture
	// hashing keeps a per-page CRC table, and a rank whose shard changed in
	// only a few 64 KiB pages is stored as a page-delta object holding just
	// the dirty pages (RawFormatPageDelta) against the chain's full
	// base shard.
	Delta bool
	// CDC enables content-defined chunking on top of Incremental: capture
	// hashing splits each rank's stream on Gear rolling-hash boundaries,
	// and a changed rank stores only content-new chunks as a chunk object
	// (RawFormatCDC) referencing the chain's existing chunks — reuse
	// survives insertions, deletions, and cross-rank duplication. Mutually
	// exclusive with Delta.
	CDC bool
	// Codec selects the stored-object codec for every committed shard:
	// "flate" (default; empty means flate) or "none" (identity passthrough,
	// no compression CPU).
	Codec string
	// Store receives every capture as a sealed epoch (shards plus
	// manifest) in addition to the in-memory image; nil selects a MemStore.
	// Restart loads any sealed epoch back via RestartFromStore.
	Store Store
	// KeepEpochs, when positive, garbage-collects the store after every
	// sealed epoch, retaining the newest KeepEpochs epochs plus everything
	// their manifests transitively reference (GCStore). Reclaimed
	// bytes are reported per capture in CheckpointStats.
	KeepEpochs int
}

// RankHooks are the capture callbacks the runtime registers per rank. They
// are invoked while the rank is parked (blocked), so they may read the
// rank's state without further synchronization.
type RankHooks struct {
	// AppSnapshotTo hands the application's upper-half state to the
	// capture as slices (appImage).
	AppSnapshotTo func(w io.Writer) error
	// Restored is the bytes this rank was restored from (nil on a fresh
	// start), with their capacity. The app may keep them as its state, and
	// then hands back a run of them, from their first byte or to their
	// capacity's last, as its snapshot's only Write (rt.App); otherwise
	// they are dead once it is restored, and the first capture copies into
	// them when they are large enough.
	Restored []byte
	// ProtoSnapshot serializes the protocol state (via Protocol.Snapshot).
	ProtoSnapshot func() ([]byte, error)
	// ClockVT reads the rank's virtual clock.
	ClockVT func() float64
	// SetClock forces the rank's clock (used to charge checkpoint I/O time
	// before release).
	SetClock func(vt float64)
	// PendingRecvs reports the rank's incomplete posted receives at capture
	// time; they are recorded in the image and re-posted after restart.
	PendingRecvs func() []RecvDesc
}

// CheckpointStats summarizes one checkpoint.
type CheckpointStats struct {
	RequestVT  float64 // virtual time the request was raised
	CaptureVT  float64 // virtual time the safe state was reached (max rank)
	DrainVT    float64 // CaptureVT - RequestVT: cost of the drain protocol
	ImageBytes int64
	// WriteVT is the modeled storage write time for the bytes this capture
	// sealed (WriteBytesOf its manifest): the stored fresh-shard bytes, or
	// PaddedBytesPerRank per fresh shard when padded — so a padded capture,
	// as every paper-figure run is, charges PaddedBytesPerRank × Ranks.
	WriteVT float64

	// StallVT and OverlapVT split WriteVT by where it lands: StallVT is
	// charged to every rank's clock before release (the job-visible stall),
	// OverlapVT streams behind the resumed job (asynchronous captures, the
	// forked-checkpoint analog). StallVT + OverlapVT == WriteVT.
	StallVT   float64
	OverlapVT float64

	// Epoch is the store epoch this capture committed as, or -1 when the
	// capture failed (nothing sealed, nothing charged).
	Epoch int

	// Retention accounting (zero unless KeepEpochs enables the post-seal
	// GC): what the pass reclaimed after this seal — dead sealed epochs,
	// unsealed-debris files, stored bytes freed — and the modeled deletion
	// traffic (metadata operations; see netmodel.DeleteTime), which ccrun's
	// GC line prints. Every field here has a program reader; cclint's
	// testonly reports one that only tests read.
	GCDeletedEpochs  int
	GCSweptObjects   int
	GCReclaimedBytes int64
	GCVT             float64

	// CommitStats is what the commit stage stored — fresh, reused,
	// page-delta and chunk-object shards, their bytes, the encode peak —
	// applied once the epoch seals (zero for a failed capture).
	CommitStats

	// CaptureHostSeconds is the wall-clock (host, not virtual) time the
	// coordinator spent building this checkpoint's job image — the quantity
	// the parallel capture fan-out shrinks. Purely observational.
	CaptureHostSeconds float64
	// CommitHostSeconds is the wall-clock time of the encode+commit stage
	// (including any wait for the preceding epoch's commit to seal).
	CommitHostSeconds float64

	// Drain-progress counters, summed across ranks at capture time and
	// reported as per-checkpoint deltas against their values when THIS
	// checkpoint's request was raised — with periodic (chained) checkpoints,
	// checkpoint k's stats cover only checkpoint k's drain. The conformance
	// engine asserts on them: a CC drain must balance its target updates, and
	// the park census must account for every rank.
	TargetUpdatesSent int64 // CC target-update messages sent during the drain
	TargetUpdatesRecv int64 // CC target-update messages consumed
	DrainTests        int64 // non-blocking completion tests while draining
	ParkedPreColl     int   // ranks captured at a collective wrapper entry
	ParkedInBarrier   int   // ranks captured inside 2PC's inserted barrier
	ParkedInWait      int   // ranks captured inside a point-to-point wait
	DoneAtCapture     int   // ranks that had finished their program
}

// phase of the coordinator's checkpoint state machine. A release returns
// to idle.
type phase int

const (
	phaseIdle phase = iota
	phasePending
	phaseTerminated
)

// Coordinator orchestrates checkpoints: it owns the parked-rank registry,
// decides when the global safe state has been reached, captures images, and
// releases or terminates the job. It is the analog of the DMTCP coordinator
// plus MANA's checkpoint manager thread.
type Coordinator struct {
	W    *mpi.World
	Algo Algorithm
	// Plan is the job's checkpoint plan, kept by value: Store is defaulted
	// (see NewCoordinator) and nothing may change once the first request is
	// raised.
	Plan Plan

	pending atomic.Bool // fast-path flag read in every wrapper

	mu        sync.Mutex
	cond      *sync.Cond
	ph        phase
	parked    []bool
	descs     []*Descriptor
	doneRanks []bool
	hooks     []RankHooks
	// snaps is each rank's capture writer, reused from capture to capture.
	snaps     []SnapParts
	requestVT float64

	// Cumulative drain-counter totals at the time the current request was
	// raised; captureLocked reports deltas against them so chained
	// checkpoints don't double-count earlier drains.
	baseSent, baseRecv, baseTests int64

	image *JobImage
	// history holds every capture's stats; the newest is Result's.
	history []CheckpointStats
	err     error

	// Commit stage state. Epochs are assigned at capture time (capture
	// order == epoch order) and commits seal strictly in epoch order — the
	// incremental differ diffs each epoch against the previous committed
	// manifest, so an out-of-order seal would diff against the wrong
	// parent. lastCommit (guarded by mu) is closed once the newest launched
	// commit has applied its outcome; each commit waits on its
	// predecessor's before its ordered part, so they close in epoch order.
	// lastMan is the most recently sealed manifest: stored only in that
	// order (and by NewCoordinator), loaded in it as the diff parent and
	// outside it as the identity pass's chunk hint, which may therefore be
	// an epoch older than the parent — a sealed manifest is never written
	// again, and a stale hint only lowers the chunker's hit rate.
	nextEpoch  int
	lastCommit chan struct{}
	lastMan    atomic.Pointer[Manifest]
}

// NewCoordinator creates a coordinator for a world under a checkpoint plan
// (nil: no plan — the job never captures). The algorithm is attached
// afterwards via SetAlgorithm (protocols and coordinator reference each
// other).
//
// Every capture is encoded into per-rank shards and sealed as an epoch of
// the plan's store (in addition to the in-memory JobImage the Result path
// keeps returning); a plan that names no store gets an in-memory one.
//
// A store that already holds sealed epochs is RESUMED, not clobbered:
// numbering continues after the newest sealed epoch and the incremental
// differ diffs the first new capture against it — the restart-then-continue
// pattern, where a restarted allocation keeps checkpointing into the same
// chain. (Starting at zero would overwrite epoch 0's shards while later
// epochs still reference them.)
func NewCoordinator(w *mpi.World, plan *Plan) (*Coordinator, error) {
	c := &Coordinator{W: w}
	if plan != nil {
		c.Plan = *plan
	}
	c.cond = sync.NewCond(&c.mu)
	c.lastCommit = make(chan struct{})
	close(c.lastCommit)
	c.parked = make([]bool, w.N)
	c.descs = make([]*Descriptor, w.N)
	c.doneRanks = make([]bool, w.N)
	c.hooks = make([]RankHooks, w.N)
	c.snaps = make([]SnapParts, w.N)
	if c.Plan.Store == nil {
		c.Plan.Store = NewMemStore()
	}
	epochs, err := c.Plan.Store.Epochs()
	if err != nil {
		return nil, fmt.Errorf("ckpt: listing store epochs: %w", err)
	}
	if len(epochs) > 0 {
		latest := epochs[len(epochs)-1]
		man, err := c.Plan.Store.GetManifest(latest)
		if err != nil {
			return nil, fmt.Errorf("ckpt: resuming store chain: %w", err)
		}
		c.nextEpoch = latest + 1
		c.lastMan.Store(man)
	}
	// A world abort must wake ranks parked on the coordinator's condition
	// variable so they observe it and unwind.
	w.OnAbort(func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	return c, nil
}

// SetAlgorithm attaches the job-wide algorithm.
func (c *Coordinator) SetAlgorithm(a Algorithm) { c.Algo = a }

// nodes returns the writer-node count of the job's placement.
func (c *Coordinator) nodes() int {
	return (c.W.N + c.W.Model.PPN - 1) / c.W.Model.PPN
}

// RegisterRank installs the capture hooks for a rank. Must be called before
// any checkpoint is requested.
func (c *Coordinator) RegisterRank(rank int, h RankHooks) {
	c.mu.Lock()
	c.hooks[rank] = h
	c.mu.Unlock()
}

// Pending reports whether a checkpoint request is outstanding. Wrappers
// check this on their fast path; it is a single atomic load.
func (c *Coordinator) Pending() bool { return c.pending.Load() }

// MarkPending flips the wrappers' fast-path flag. The algorithm calls this
// from OnCheckpointRequest at the exact point in its own synchronization
// where targets become authoritative (for CC: inside the exclusive section
// that snapshots the sequence numbers, so no increment can race the target
// computation).
func (c *Coordinator) MarkPending() { c.pending.Store(true) }

// Poke wakes every parked rank so it re-runs its decide: one whose decide
// completes the safe state captures (ParkUntil). Protocols call this after
// any action that could unblock a peer: sending a target update, executing
// a collective, initiating a non-blocking operation, or sending a
// point-to-point message while a checkpoint is pending.
func (c *Coordinator) Poke() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.W.WakeAll()
}

// RequestCheckpoint raises a checkpoint request at the given virtual time.
// It installs the algorithm's targets (Algorithm 1) and captures at once if
// the safe state already holds (every rank has finished); otherwise the rank
// whose park or finish completes it captures. It returns false unless the
// coordinator is idle: a request is already pending, or the job terminated.
//
// The coordinator is idle again as soon as a capture releases, before every
// parked rank has woken: a rank that has not yet woken to acknowledge the
// release is still sitting at its park point — state frozen, descriptor
// accurate, clock already charged — which is exactly a capturable position
// for the next drain, so chained periodic checkpoints need not wait for
// scheduling stragglers (with uneven-progress jobs the fast ranks could
// otherwise burn through every trigger boundary before a slow waker
// re-enables the chain).
func (c *Coordinator) RequestCheckpoint(vt float64) bool {
	c.mu.Lock()
	if c.ph != phaseIdle {
		c.mu.Unlock()
		return false
	}
	c.ph = phasePending
	c.requestVT = vt
	c.image = nil
	// c.err is deliberately NOT reset: with chained periodic checkpoints a
	// failed capture or commit must survive to Result() even though later
	// requests keep running — wiping it would let a run whose epoch k never
	// sealed report success.
	// Baseline the cumulative drain counters at request time: this
	// checkpoint's stats will be the deltas accrued by its own drain. The
	// counters only move while a request is pending (all writes precede the
	// writer's park, which acquires c.mu), so reading them here is ordered.
	c.baseSent, c.baseRecv, c.baseTests = c.drainTotals()
	c.mu.Unlock()

	c.Algo.OnCheckpointRequest()
	c.pending.Store(true)
	c.mu.Lock()
	c.captureIfSafeLocked()
	c.mu.Unlock()
	c.Poke()
	return true
}

// captureIfSafeLocked captures, then releases or terminates the job, if this
// caller's transition completed the global safe state. It runs under c.mu
// wherever that state can be completed — a park whose decide stays, a
// finish, a request — so no rank can unpark between the check and the
// capture, and no other goroutine has to be woken to see it. Reports
// whether it captured.
func (c *Coordinator) captureIfSafeLocked() bool {
	// A dead world's ranks have unwound: a post-mortem image would be garbage.
	if !c.safeStateLocked() || c.W.AbortErr() != nil {
		return false
	}
	c.captureLocked()
	c.W.WakeAll()
	return true
}

// safeStateLocked is the capture predicate: a request is pending, every
// rank is parked or finished, and the algorithm's drain is complete.
func (c *Coordinator) safeStateLocked() bool {
	return c.ph == phasePending && c.allParkedLocked() && c.Algo.Quiesced()
}

func (c *Coordinator) allParkedLocked() bool {
	for i, p := range c.parked {
		if !p && !c.doneRanks[i] {
			return false
		}
	}
	return true
}

// drainTotals sums the cumulative drain counters over all ranks. Caller
// holds c.mu (which orders the reads against the owning rank goroutines: a
// drain-counter write always precedes the writer's park, and parking takes
// the coordinator lock).
func (c *Coordinator) drainTotals() (sent, recv, tests int64) {
	for r := 0; r < c.W.N; r++ {
		ct := c.W.Proc(r).Ct
		sent += ct.TargetUpdatesSent
		recv += ct.TargetUpdatesRecv
		tests += ct.DrainTests
	}
	return sent, recv, tests
}

// captureRank builds one rank's image. Safe to run concurrently for distinct
// ranks while the caller holds c.mu: every rank is parked (its state frozen),
// each hook touches only its own rank, and the world accessors take per-rank
// mailbox locks.
func (c *Coordinator) captureRank(r int, img *JobImage) error {
	ri := RankImage{Rank: r}
	var firstErr error
	if d := c.descs[r]; d != nil {
		ri.Desc = *d
	} else if c.doneRanks[r] {
		ri.Desc = Descriptor{Kind: ParkDone}
	}
	if h := c.hooks[r]; h.PendingRecvs != nil {
		// The authoritative list of incomplete receives is computed now, at
		// capture time (a receive recorded at park time may have completed
		// since).
		ri.Desc.Recvs = h.PendingRecvs()
		if posted := c.W.PendingPosted(r); posted != len(ri.Desc.Recvs) {
			firstErr = fmt.Errorf("ckpt: rank %d has %d posted receives but %d descriptors",
				r, posted, len(ri.Desc.Recvs))
		}
	}
	if h := c.hooks[r]; h.AppSnapshotTo != nil {
		s := &c.snaps[r]
		if err := h.AppSnapshotTo(s); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("ckpt: rank %d app snapshot: %w", r, err)
			}
		} else {
			ri.App = c.appImage(r, s)
		}
		s.Reset() // hold none of the app's memory past the capture
		proto, err := h.ProtoSnapshot()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ckpt: rank %d protocol snapshot: %w", r, err)
		}
		ri.Proto = proto
		ri.ClockVT = h.ClockVT()
	}
	// MANA's p2p drain: in-flight (sent, unreceived) messages become part of
	// the receiver's upper half.
	ri.Inflight = c.W.SnapshotInflight(r)
	img.Images[r] = ri
	return firstErr
}

// SnapParts is the writer a capture hands an app's SnapshotTo, and the job
// digest too. It keeps every non-empty slice it is given, and their total
// length N, until the capture lays them out (appImage) or the digest hashes
// them — which is why rt.App asks that they stay as they are until then.
type SnapParts struct {
	Parts [][]byte
	N     int
}

func (s *SnapParts) Write(p []byte) (int, error) {
	if len(p) > 0 {
		s.Parts = append(s.Parts, p)
		s.N += len(p)
	}
	return len(p), nil
}

// Reset empties s, keeping its slice of parts but none of their memory.
func (s *SnapParts) Reset() {
	clear(s.Parts)
	s.Parts, s.N = s.Parts[:0], 0
}

// appImage lays out rank r's captured state from the slices its SnapshotTo
// handed over, copying it at most once:
//   - a capture that ends the job keeps a one-Write snapshot as it is: the
//     rank never runs again, whatever Async says, so nothing writes the
//     bytes while the commit reads them;
//   - the first capture after a restart copies into the bytes the rank was
//     restored from, unless the app kept them — an app that keeps them hands
//     back as its only Write a run of their capacity that starts at their
//     first byte or ends at its last (rt.App), so pointer identity at either
//     end tells a kept buffer from a dead one — and if they are large enough;
//   - any other capture copies into one exactly sized allocation, which
//     bytes.Join does not clear first.
//
// Safe to run concurrently for distinct ranks, like captureRank.
func (c *Coordinator) appImage(r int, s *SnapParts) []byte {
	restored := c.hooks[r].Restored
	c.hooks[r].Restored = nil // only the first capture may write into it
	if len(s.Parts) == 1 && c.Plan.Mode == ExitAfterCapture {
		return s.Parts[0]
	}
	if !(len(s.Parts) == 1 && keeps(restored, s.Parts[0])) && cap(restored) >= s.N {
		dst := restored[:0]
		for _, p := range s.Parts {
			dst = append(dst, p...)
		}
		return dst
	}
	return bytes.Join(s.Parts, nil)
}

// keeps reports whether p, an app's one non-empty snapshot Write, is the
// restored bytes kept: it starts at their first byte or ends at the last
// byte of their capacity.
func keeps(restored, p []byte) bool {
	full := restored[:cap(restored)]
	return len(full) > 0 && (&p[0] == &full[0] || &p[len(p)-1] == &full[len(full)-1])
}

// withHeadroom is the capacity the loader gives a restored App of n bytes:
// proportional slack, because state that grows at all grows with its size.
// An app that keeps its restored bytes grows into it (a straggler's hole,
// which its snapshot closes toward the front, so the snapshot ends at the
// capacity's last byte);
// otherwise the first capture can write into them (appImage) unless the
// state outgrew it.
func withHeadroom(n int) int { return n + n/32 }

// captureLocked runs stage 1 of the checkpoint pipeline — snapshotting every
// rank concurrently (each is parked, so per-rank snapshots are race-free by
// construction) — then commits the frozen image: here, before the release
// (stop-and-write), or, with Async, on a goroutine of its own behind a job
// released against only the storage open latency. Caller holds c.mu, which
// freezes the parked-rank registry for the worker goroutines and, through a
// synchronous commit, holds every parked rank until the release.
func (c *Coordinator) captureLocked() {
	//lint:allow wallclock CaptureHostSeconds deliberately reports host-side encode cost
	captureStart := time.Now()
	if err := c.Algo.VerifySafeState(); err != nil {
		c.err = fmt.Errorf("ckpt: safe-state invariant violated: %w", err)
	}

	img := &JobImage{
		Algorithm:          c.Algo.Name(),
		Ranks:              c.W.N,
		PPN:                c.W.Model.PPN,
		PaddedBytesPerRank: c.Plan.PaddedBytesPerRank,
		Images:             make([]RankImage, c.W.N),
	}
	rankErrs := make([]error, c.W.N)
	fanOut(c.W.N, encodeWorkers(c.W.N), func(r int) {
		rankErrs[r] = c.captureRank(r, img)
	})
	var maxVT float64
	for r := 0; r < c.W.N; r++ {
		if rankErrs[r] != nil && c.err == nil {
			c.err = rankErrs[r] // lowest-rank error wins, as in the serial path
		}
		if vt := img.Images[r].ClockVT; vt > maxVT {
			maxVT = vt
		}
	}
	img.CaptureVT = maxVT

	st := CheckpointStats{
		RequestVT:  c.requestVT,
		CaptureVT:  maxVT,
		DrainVT:    maxVT - c.requestVT,
		ImageBytes: img.TotalBytes(),
		Epoch:      -1,
		//lint:allow wallclock CaptureHostSeconds deliberately reports host-side encode cost
		CaptureHostSeconds: time.Since(captureStart).Seconds(),
	}
	// Drain-progress census, as per-checkpoint deltas against the request-
	// time baselines (cumulative sums would fold every earlier chained
	// checkpoint's drain into this one's stats). Every live rank is blocked
	// (parked on the coordinator condition or finished through FinishRank's
	// lock), so reading its counters here is ordered by c.mu.
	sent, recv, tests := c.drainTotals()
	st.TargetUpdatesSent = sent - c.baseSent
	st.TargetUpdatesRecv = recv - c.baseRecv
	st.DrainTests = tests - c.baseTests
	for r := 0; r < c.W.N; r++ {
		switch {
		case c.descs[r] != nil && c.descs[r].Kind == ParkPreCollective:
			st.ParkedPreColl++
		case c.descs[r] != nil && c.descs[r].Kind == ParkInBarrier:
			st.ParkedInBarrier++
		case c.descs[r] != nil && c.descs[r].Kind == ParkInWait:
			st.ParkedInWait++
		case c.doneRanks[r] || (c.descs[r] != nil && c.descs[r].Kind == ParkDone):
			st.DoneAtCapture++
		}
	}
	c.image = img

	if c.err != nil {
		// A capture that FAILED seals nothing and is charged nothing: a
		// fresh process restarting from the store cannot see c.err and
		// would restore the incomplete image as if it were healthy.
		c.history = append(c.history, st)
		c.releaseLocked(maxVT)
		return
	}

	// Staged pipeline: the epoch is assigned now, under the capture lock, so
	// epoch order always equals capture order even when commits run in the
	// background.
	st.Epoch = c.nextEpoch
	c.nextEpoch++
	if c.Plan.Async {
		// Released against only the filesystem's open latency; stages 2–3
		// run behind the resumed execution on a private (double-buffered)
		// image — the next capture allocates a fresh one.
		st.StallVT = c.W.Model.WriteCost(0, c.nodes(), true).Stall
	}
	histIdx := len(c.history)
	c.history = append(c.history, st)

	if !c.Plan.Async {
		// Synchronous: the commit runs here, under c.mu, so no parked rank
		// can leave before the release whatever its protocol would now
		// decide. The watchdog's DebugString and the world's abort hook take
		// c.mu too: both wait for an in-flight synchronous commit.
		c.applyCommitLocked(histIdx, c.commitEpoch(st.Epoch, img, c.lastCommit))
		c.releaseLocked(maxVT + c.history[histIdx].StallVT)
		return
	}

	// Stages 2–3 run on their own goroutine. The commit takes its
	// predecessor's channel and closes its own once its outcome is applied —
	// failed or not, or every later commit would wait forever.
	prev, done := c.lastCommit, make(chan struct{})
	c.lastCommit = done
	go func() {
		res := c.commitEpoch(st.Epoch, img, prev)
		c.mu.Lock()
		c.applyCommitLocked(histIdx, res)
		c.mu.Unlock()
		c.W.NoteActivity()
		close(done)
	}()
	c.releaseLocked(maxVT + st.StallVT)
}

// releaseLocked charges the resume time to every live rank and returns the
// job to idle, or terminates it. Caller holds c.mu.
func (c *Coordinator) releaseLocked(resume float64) {
	for r := 0; r < c.W.N; r++ {
		if h := c.hooks[r]; h.SetClock != nil && !c.doneRanks[r] {
			h.SetClock(resume)
		}
	}
	c.pending.Store(false)
	if c.Plan.Mode == ExitAfterCapture {
		c.ph = phaseTerminated
	} else {
		c.ph = phaseIdle
	}
	c.cond.Broadcast()
	c.W.NoteActivity()
}

// commitResult carries one epoch commit's outcome back to the stats.
type commitResult struct {
	epoch       int
	stats       *CommitStats
	cost        netmodel.WriteCost // the sealed epoch's modeled write
	hostSeconds float64
	err         error

	// Retention pass outcome (KeepEpochs). gcErr is kept apart from err:
	// the epoch itself SEALED, so its cost fields must still be applied
	// even when the GC after it failed.
	gc    *GCStats
	gcErr error
}

// commitEpoch runs stages 2–3 for one captured image: hash every shard's
// identity (parallel with other epochs' hashing — it depends only on this
// image; the manifest CDC mode reads beside it is a hint), then, once prev —
// the previous epoch's commit — has closed, diff against the previous
// committed manifest (when Incremental), stream the fresh shards into the
// store, seal the epoch and run the retention pass. Takes no lock (a
// synchronous capture holds c.mu around it).
func (c *Coordinator) commitEpoch(epoch int, img *JobImage, prev <-chan struct{}) (res commitResult) {
	//lint:allow wallclock commit hostSeconds deliberately reports host-side commit cost
	t0 := time.Now()
	res = commitResult{epoch: epoch}
	codec, encErr := CodecByName(c.Plan.Codec)
	var sums *ShardSums
	switch {
	case encErr != nil: // a typo'd codec fails the commit before any work
	case c.Plan.CDC:
		// CDC mode also builds the content-defined chunk table the
		// commit-time chunk index consumes, most of it proved against the
		// last sealed epoch's instead of searched for.
		sums, encErr = hashCapture(img, 0, true, c.lastMan.Load())
	case c.Plan.Delta:
		// Delta mode also builds the per-page CRC table the differ needs.
		sums, encErr = HashCapturePaged(img, ShardPageBytes)
	default:
		sums, encErr = HashCapture(img)
	}

	// Everything below runs in epoch order, a failed hash included, so
	// that this commit's channel closes only after every earlier one.
	<-prev
	defer func() {
		//lint:allow wallclock commit hostSeconds deliberately reports host-side commit cost
		res.hostSeconds = time.Since(t0).Seconds()
	}()

	if res.err = encErr; res.err != nil {
		return res
	}
	var parent *Manifest
	if c.Plan.Incremental {
		parent = c.lastMan.Load()
	}
	man, st, err := buildCommit(c.Plan.Store, codec, epoch, parent, img, sums)
	if err == nil {
		res.cost, err = c.seal(man)
	}
	if err != nil {
		// The epoch never sealed: remove its partial shard debris so the
		// store does not accumulate dead files (best-effort — the commit
		// error is the one to surface, and GC sweeps what this leaves).
		c.Plan.Store.DeleteEpoch(epoch)
		res.err = err
		return res
	}
	res.stats = st
	c.lastMan.Store(man)
	// GC runs inside the epoch order: that is the race-freedom argument for
	// GC vs. an in-flight commit — the next queued commit cannot start until
	// this one's channel closes, its diff parent is lastMan (always
	// retained, keep >= 1), and reuse copies RefEpoch from lastMan's
	// entries, all of which GC traced live.
	if c.Plan.KeepEpochs > 0 {
		res.gc, res.gcErr = GCStore(c.Plan.Store, c.Plan.KeepEpochs)
	}
	return res
}

// seal prices a finished manifest and seals its epoch in commit order. The
// charge is one parallel-filesystem write of WriteBytesOf(man).
func (c *Coordinator) seal(man *Manifest) (netmodel.WriteCost, error) {
	if err := c.Plan.Store.PutManifest(man.Epoch, man); err != nil {
		return netmodel.WriteCost{}, err
	}
	return c.W.Model.WriteCost(WriteBytesOf(man), c.nodes(), c.Plan.Async), nil
}

// applyCommitLocked folds a commit's outcome into the history entry it
// belongs to. Caller holds c.mu.
func (c *Coordinator) applyCommitLocked(histIdx int, res commitResult) {
	e := &c.history[histIdx]
	e.CommitHostSeconds = res.hostSeconds
	if res.err != nil {
		// The failed epoch's cost fields deliberately stay zero (no write
		// time is charged for an epoch that never sealed); the run itself
		// is failed — Result surfaces this error — so its virtual-time
		// metrics are void either way.
		if c.err == nil {
			c.err = fmt.Errorf("ckpt: committing epoch %d: %w", res.epoch, res.err)
		}
	} else {
		e.WriteVT = res.cost.Total
		e.StallVT = res.cost.Stall
		e.OverlapVT = res.cost.Overlap
		e.CommitStats = *res.stats
	}
	// The GC outcome applies even when the pass failed part-way (the epoch
	// itself sealed; whatever was reclaimed before the failure is real),
	// with the failure surfaced through the run error.
	if res.gc != nil {
		e.GCDeletedEpochs = res.gc.DeletedEpochs
		e.GCSweptObjects = res.gc.SweptObjects
		e.GCReclaimedBytes = res.gc.ReclaimedBytes
		// Deletes are metadata operations: the cost scales with the objects
		// removed, not their bytes.
		e.GCVT = c.W.Model.DeleteTime(res.gc.DeletedShards + res.gc.DeletedEpochs + res.gc.SweptObjects)
	}
	if res.gcErr != nil && c.err == nil {
		c.err = fmt.Errorf("ckpt: gc after epoch %d: %w", res.epoch, res.gcErr)
	}
}

// drainPending waits out the newest Async commit, which closes only after
// every earlier one. A capture runs on the goroutine whose park, finish or
// request completed the safe state, and commits or launches its commit
// before that call returns, so once every rank goroutine has returned —
// Result and History are called only then — nothing else is in flight.
func (c *Coordinator) drainPending() {
	c.mu.Lock()
	last := c.lastCommit
	c.mu.Unlock()
	<-last
}

// ParkUntil parks the rank at a capturable point described by d. decide is
// evaluated under the coordinator lock on parking and after every wake;
// returning Resume unparks the rank (new work arrived: a target update, a
// completed receive). When it returns Stay and the rank's park, or what
// decide consumed, completed the safe state, the rank captures here, on
// its own goroutine. The outcome tells the caller whether to continue
// executing (Proceed), continue after an in-place checkpoint (Released), or
// unwind (Terminated).
func (c *Coordinator) ParkUntil(rank int, d *Descriptor, decide func() Decision) Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ph != phasePending {
		return Proceed
	}
	c.parked[rank] = true
	c.descs[rank] = d
	c.W.NoteActivity()
	defer c.W.SetWaitSite(rank, "")

	for {
		switch c.ph {
		case phaseIdle:
			// Captured and released; this rank continues.
			c.parked[rank] = false
			c.descs[rank] = nil
			c.W.NoteActivity()
			return Released
		case phaseTerminated:
			return Terminated
		}
		if err := c.W.AbortErr(); err != nil {
			panic(mpi.AbortError{Err: err})
		}
		if decide() == Resume {
			c.parked[rank] = false
			c.descs[rank] = nil
			c.W.NoteActivity()
			c.cond.Broadcast()
			return Proceed
		}
		if c.captureIfSafeLocked() {
			continue // released or terminated: the phase says which
		}
		// Re-assert the label each cycle: the decide callback may have run
		// MPI calls (absorbing target updates) that relabeled the rank.
		c.W.SetWaitSite(rank, "parked:"+d.Kind.String())
		c.cond.Wait()
	}
}

// FinishRank marks a rank as having completed its program. Finished ranks
// count as parked for capture purposes, so the last rank to finish while a
// request is pending may capture here.
func (c *Coordinator) FinishRank(rank int) {
	c.mu.Lock()
	c.doneRanks[rank] = true
	c.captureIfSafeLocked()
	c.mu.Unlock()
	c.W.SetWaitSite(rank, "done")
	c.W.NoteActivity()
}

// Result returns the checkpoint results once a capture has happened — the
// image and stats of the newest capture (its History entry) — first
// draining any in-flight capture and its background commit.
func (c *Coordinator) Result() (*JobImage, CheckpointStats, error) {
	c.drainPending()
	c.mu.Lock()
	defer c.mu.Unlock()
	var st CheckpointStats
	if n := len(c.history); n > 0 {
		st = c.history[n-1]
	}
	return c.image, st, c.err
}

// History returns the statistics of every checkpoint captured during the
// run (periodic checkpointing captures several), first draining any
// in-flight capture and commit so every entry's write accounting is final.
func (c *Coordinator) History() []CheckpointStats {
	c.drainPending()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CheckpointStats, len(c.history))
	copy(out, c.history)
	return out
}

// Terminated reports whether the job was checkpoint-terminated.
func (c *Coordinator) Terminated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ph == phaseTerminated
}

// WaitFor blocks the caller on the coordinator condition variable until pred
// holds; protocols use it inside their own decide loops. The caller must NOT
// hold c's lock; pred is evaluated under it.
func (c *Coordinator) WaitFor(pred func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !pred() {
		if err := c.W.AbortErr(); err != nil {
			panic(mpi.AbortError{Err: err})
		}
		c.cond.Wait()
	}
}

// DebugString renders the coordinator's state for the deadlock watchdog's
// diagnostic dump, once an in-flight synchronous commit lets go of c.mu.
func (c *Coordinator) DebugString() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := map[phase]string{phaseIdle: "idle", phasePending: "pending", phaseTerminated: "terminated"}
	parked, done := 0, 0
	for i := range c.parked {
		if c.parked[i] {
			parked++
		}
		if c.doneRanks[i] {
			done++
		}
	}
	s := fmt.Sprintf("ckpt: phase=%s parked=%d/%d done=%d", names[c.ph], parked, c.W.N, done)
	if c.ph == phasePending && c.Algo != nil {
		s += fmt.Sprintf(" quiesced=%v", c.Algo.Quiesced())
	}
	return s
}
