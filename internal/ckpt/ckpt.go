// Package ckpt is the checkpointing framework shared by the collective-clock
// (CC) algorithm, the two-phase-commit (2PC) baseline, and the native
// (no-checkpoint) passthrough. It plays the role of MANA's coordination
// layer plus DMTCP's coordinator:
//
//   - Protocol / Algorithm: the interposition interface the algorithms
//     implement. Every MPI collective an application performs flows through
//     Protocol.Collective (blocking) or Protocol.Initiate (non-blocking),
//     exactly as MANA wraps MPI calls in the upper half.
//   - Coordinator: tracks which ranks are parked at capturable points,
//     decides when a globally safe state has been reached, captures the
//     upper-half images, and either releases the job (checkpoint-and-
//     continue) or terminates it (checkpoint-and-exit, for restart).
//   - Descriptors and images: the serializable record of each rank's parked
//     position — pending collective, pending receives, or a step boundary —
//     plus the application snapshot, protocol state, and drained in-flight
//     messages.
//
// The safe state being sought is the paper's (§4.1): no rank inside a
// collective in the lower half (Invariant 1), and every started collective
// completed by all members before capture (Invariant 2).
//
// Capture and serialization are built for scale: the coordinator snapshots
// every rank concurrently (all ranks are parked, so per-rank state is frozen)
// and the image is written as one independently compressed and checksummed
// shard per rank behind a job manifest, encoded and decoded across
// GOMAXPROCS workers — into a Store, or packed into a single file, which is
// the same epoch either way (see image.go).
//
// The checkpoint path is a staged pipeline (see coordinator.go, store.go,
// FORMAT.md): stage 1 snapshots all ranks while parked; stages 2–3 hash
// per-rank shard identities and STREAM the fresh shards into a Store as a
// sealed epoch — a small gob header plus raw payload bytes (gob buffers
// whole messages, so bulk state never passes through it), flate, and
// checksum flow straight into the store's shard writer (ShardWriter)
// through pooled fixed-size buffers, with
// concurrent streams bounded in bytes by a StreamBudget
// (Plan.StreamBudgetBytes; high-water reported as
// CheckpointStats.PeakEncodeBytes), so peak encode memory never scales
// with the image size. Restart reads are symmetric (OpenShard streamed
// through verification into the gob decoder). With
// Plan.Async the job is released after stage 1 against only the
// storage open latency — the forked-checkpoint analog — and the write time
// is accounted as overlap instead of stall. With Plan.Incremental a
// shard whose content hash matches the previous committed epoch is recorded
// as a reference to the epoch that already holds its bytes; restart
// resolves the reference chain through the Store and attributes any
// corruption to the (epoch, rank) that failed. An epoch is priced when the
// coordinator seals it, from its manifest alone (WriteBytesOf; the restart
// side is ReadSetOf), as one parallel-filesystem write.
package ckpt

import (
	"mana/internal/mpi"
)

// ParkKind records where a rank was parked when the checkpoint was captured,
// which determines how the rank resumes after restart.
type ParkKind int

// Park kinds.
const (
	ParkNone ParkKind = iota
	// ParkPreCollective: parked at a collective wrapper entry; the
	// collective has NOT executed (sequence number not incremented). On
	// restart the collective is re-issued from its descriptor.
	ParkPreCollective
	// ParkInBarrier: 2PC only — parked inside the inserted Ibarrier's test
	// loop; the barrier did not complete (not every member issued it). On
	// restart the barrier and then the collective are re-issued.
	ParkInBarrier
	// ParkInWait: parked inside a point-to-point wait with incomplete
	// receives; their descriptors are re-posted on restart.
	ParkInWait
	// ParkBoundary: parked between steps with no pending operation. Kept in
	// the image format for compatibility, but mid-run boundaries are no
	// longer park points (see the CC implementation's AtBoundary note): the
	// protocols park only at collective entries, native waits, and program
	// end.
	ParkBoundary
	// ParkDone: the rank had finished its program.
	ParkDone
)

var parkNames = map[ParkKind]string{
	ParkNone: "none", ParkPreCollective: "pre-collective",
	ParkInBarrier: "in-barrier", ParkInWait: "in-wait",
	ParkBoundary: "boundary", ParkDone: "done",
}

func (k ParkKind) String() string {
	if s, ok := parkNames[k]; ok {
		return s
	}
	return "unknown"
}

// CollDesc describes a pending (not yet executed) blocking collective so it
// can be re-issued after restart. Buffer contents live in the application
// snapshot; the descriptor carries only names.
type CollDesc struct {
	CommVID  int // virtual communicator id (creation order; 0 = world)
	Kind     int // netmodel.CollKind
	Op       int // mpi.Op for reductions
	Root     int
	InBufID  string // named buffer supplying the payload ("" if none)
	OutBufID string // named buffer receiving the result ("" if none)
	BufOff   int    // offset/length into the named buffers (0,0 = whole)
	BufLen   int
	// VirtSize is the per-rank payload size of a size-only benchmark
	// collective (no data movement). Meaningful only with Bench.
	VirtSize int
	// Bench marks a size-only benchmark collective: on restart the op is
	// re-issued sized (VirtSize may legitimately be 0 — which is why the size
	// alone cannot mark one) rather than through named buffers.
	Bench bool
}

// RecvDesc describes an incomplete posted receive: on restart it is
// re-posted into the same named buffer region.
type RecvDesc struct {
	CommVID int
	Src     int // comm rank or mpi.AnySource
	Tag     int
	BufID   string
	Off     int
	Len     int
}

// Descriptor is the full record of a rank's parked position.
type Descriptor struct {
	Kind  ParkKind
	Coll  *CollDesc  // ParkPreCollective / ParkInBarrier
	Recvs []RecvDesc // ParkInWait: the incomplete receives
}

// RankImage is one rank's upper-half checkpoint image.
type RankImage struct {
	Rank     int
	Desc     Descriptor
	Proto    []byte // protocol (CC/2PC) state: sequence-number tables etc.
	App      []byte // application snapshot
	Inflight []mpi.InflightSnapshot
	ClockVT  float64
}

// Bytes returns the serialized size of the image's payload sections; the
// storage model charges this many bytes at checkpoint/restart time.
func (ri *RankImage) Bytes() int64 {
	n := int64(len(ri.Proto) + len(ri.App))
	for _, m := range ri.Inflight {
		n += int64(len(m.Data))
	}
	return n
}

// JobImage is the complete checkpoint of a job: one image per rank plus the
// job geometry needed to rebuild a fresh lower half.
type JobImage struct {
	Algorithm string
	Ranks     int
	PPN       int
	CaptureVT float64 // common virtual time at capture
	Images    []RankImage

	// PaddedBytesPerRank, when positive, overrides the measured image size
	// in the storage model — used to reproduce the paper's Figure 9, where
	// each VASP rank's image is ~398 MB while our proxy state is smaller.
	PaddedBytesPerRank int64
}

// TotalBytes returns the modeled bytes written to storage for this image.
func (ji *JobImage) TotalBytes() int64 {
	if ji.PaddedBytesPerRank > 0 {
		return ji.PaddedBytesPerRank * int64(ji.Ranks)
	}
	var n int64
	for i := range ji.Images {
		n += ji.Images[i].Bytes()
	}
	return n
}

// CommInfo describes one communicator to the protocols: the underlying
// simulator handle plus the global group identity the CC algorithm keys on.
type CommInfo struct {
	Comm    *mpi.Comm
	Ggid    uint64 // global group id: hash of sorted member world ranks
	Members []int  // sorted world ranks (MPI_SIMILAR canonical form)
	VID     int    // virtual id (creation order), stable across restarts
}

// Outcome is the result of a park attempt.
type Outcome int

// Park outcomes.
const (
	// Proceed: not parked (or unparked by new work) — continue executing.
	Proceed Outcome = iota
	// Released: a checkpoint was captured and the job continues in place.
	Released
	// Terminated: a checkpoint was captured and the job must exit (the
	// caller unwinds the rank goroutine; restart happens from the image).
	Terminated
)

// Decision is returned by a park predicate evaluated under the coordinator
// lock.
type Decision int

// Park decisions.
const (
	Stay Decision = iota
	Resume
)

// Protocol is the per-rank interposition interface. The env routes every
// application MPI call through it.
type Protocol interface {
	// Name identifies the algorithm ("cc", "2pc", "native").
	Name() string

	// RegisterComm introduces a communicator (called for the world comm at
	// setup and for every created communicator).
	RegisterComm(ci *CommInfo)

	// Collective runs one blocking collective through the protocol. exec
	// performs the actual simulator call. desc builds the record of the
	// pending operation for capture; a protocol calls it only when it parks
	// the rank in front of the operation, so the uninterrupted path builds
	// nothing (nil when checkpointing is disabled: see Describe).
	// The returned outcome is Terminated if a checkpoint-and-exit was
	// captured while parked at this wrapper; the caller must unwind.
	Collective(ci *CommInfo, desc func() *Descriptor, exec func()) Outcome

	// Initiate runs one non-blocking collective initiation. It never parks.
	Initiate(ci *CommInfo, exec func() *mpi.Request) *mpi.Request

	// HoldAtWait is called from point-to-point wait loops when the rank
	// would block. done() reports whether the awaited operation has
	// completed. The protocol parks the rank if a checkpoint is pending and
	// the rank is capturable; it returns Proceed when the rank should
	// re-check its waits.
	HoldAtWait(desc *Descriptor, done func() bool) Outcome

	// AtBoundary is called between steps and at program end (desc.Kind is
	// ParkBoundary or ParkDone).
	AtBoundary(desc *Descriptor) Outcome

	// Snapshot/Restore serialize the protocol's per-rank state (sequence
	// number tables) into/from the rank image.
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// Describe builds a pending collective's descriptor with the given park kind;
// without a builder the descriptor carries the kind alone.
func Describe(desc func() *Descriptor, kind ParkKind) *Descriptor {
	d := &Descriptor{}
	if desc != nil {
		d = desc()
	}
	d.Kind = kind
	return d
}

// Algorithm is the job-wide view of a checkpointing algorithm.
type Algorithm interface {
	Name() string
	SupportsNonblocking() bool

	// NewRank creates the per-rank protocol instance. world is the rank's
	// MPI_COMM_WORLD handle (protocols derive their hidden control channel
	// from it).
	NewRank(p *mpi.Proc, world *mpi.Comm) Protocol

	// OnCheckpointRequest is invoked once per checkpoint, when the request
	// is raised; the CC algorithm computes and installs the initial targets
	// here (Algorithm 1 — in MANA this exchange rides the DMTCP
	// coordinator's out-of-band channel).
	OnCheckpointRequest()

	// Quiesced reports whether, with every rank parked, the algorithm's
	// drain has fully completed (targets reached everywhere, no protocol
	// messages in flight, all non-blocking collectives drained).
	Quiesced() bool

	// VerifySafeState checks the safe-state invariants at capture time.
	VerifySafeState() error
}
