// Package mana is a Go reproduction of "Enabling Practical Transparent
// Checkpointing for MPI: A Topological Sort Approach" (Xu & Cooperman,
// CLUSTER 2024): the collective-clock (CC) algorithm for transparent
// checkpointing of MPI applications, together with everything needed to
// run and evaluate it on a laptop —
//
//   - an in-process MPI simulator (one goroutine per rank, virtual-time
//     LogGP-style network model calibrated to a Slingshot-11-class fabric);
//   - the CC algorithm (per-group sequence numbers, checkpoint-time targets,
//     the topological-sort drain with target-update messages, and the
//     non-blocking collective extension);
//   - MANA's original two-phase-commit (2PC) baseline;
//   - checkpoint capture, image serialization, and restart into a fresh
//     "lower half";
//   - proxy applications matching the paper's workloads (VASP, Poisson-CG,
//     CoMD, LAMMPS, SW4, and the OSU micro-benchmarks);
//   - an experiment harness regenerating the paper's Table 1 and Figures
//     5 through 9.
//
// # Quick start
//
//	factory, _ := mana.Workload("vasp", 0.001)
//	rep, err := mana.Run(mana.Config{
//		Ranks:     512,
//		PPN:       128,
//		Params:    mana.PerlmutterLike(),
//		Algorithm: mana.AlgoCC,
//	}, factory)
//
// To checkpoint and restart:
//
//	cfg.Checkpoint = &mana.CkptPlan{AtVT: 1.0, Mode: mana.ExitAfterCapture}
//	rep, _ := mana.Run(cfg, factory) // exits at the safe state, sealed into rep.Store
//	rep2, _ := mana.RestartFromStore(cfg2, rep.Store, rep.Checkpoint.Epoch, factory) // fresh lower half
//
// Custom applications implement the App interface (see its documentation
// for the checkpointing contract) and talk to MPI through Env.
//
// # Verifying correctness
//
// The checkpoint-anywhere conformance engine (internal/conformance, driven
// by cmd/ccverify) turns the paper's central claim into an executable check:
// for every registered workload and both checkpointing algorithms it runs
// the job uninterrupted to a golden final-state digest, then re-runs it with
// a checkpoint-and-restart injected at each point of a sweep over rank 0's
// step index, asserting the restarted run's digest is bitwise-identical and
// the drain stays within a bounded virtual-time budget:
//
//	go run ./cmd/ccverify                 # full matrix + negative test
//	go run ./cmd/ccverify -workloads vasp -algos cc -v
//
// The sweep uses CkptPlan.AtStep, a deterministic step-indexed trigger, and
// Report.StateDigest, a canonical hash of every rank's final snapshot. A
// negative mode corrupts a captured image and confirms the corruption is
// detected. Runs are guarded by a deadlock watchdog (Config.StallTimeout):
// a wedged job aborts with per-rank wait-site diagnostics instead of
// hanging. The same matrix runs in CI via "go test ./internal/conformance".
//
// # Checkpoint images
//
// An image file (SaveImage / LoadImage) is one store epoch, packed: every
// rank's upper half is an independent shard object — chunked, compressed,
// and checksummed on its own — behind the epoch's manifest record, and
// capture plus encode/decode fan out across GOMAXPROCS workers. Corruption
// is detected and attributed to the specific rank shard, and a single rank
// can be extracted without decoding the job. The ccimg tool fronts all of
// it, for a file and a store directory alike:
//
//	ccimg info -v job.img            # geometry, park census, shard table
//	ccimg verify job.img             # per-shard integrity (CI-friendly exit)
//	ccimg extract -rank 3 job.img    # decode one rank's shard
//
// # Cross-geometry restart
//
// Restart requires the same rank count and algorithm as the capture, but not
// the same placement: an image captured at one PPN restarts onto a different
// ranks-per-node geometry (and node count) — MANA's allocation-chaining
// scenario, where the network-agnostic image outlives the allocation it was
// taken on. Only the rebuilt lower half changes; the conformance engine's
// cross-geometry sweep (ccverify -only crossgeo) asserts digest equality across
// placements.
//
// # Asynchronous, incremental, and streaming checkpointing
//
// The checkpoint path is a staged pipeline committed to a pluggable Store
// (internal/ckpt/FORMAT.md): with CkptPlan.Async the job resumes as soon as
// the all-ranks snapshot completes, paying only the storage open latency
// while shard encoding and the store commit stream behind execution
// (CheckpointStats.OverlapVT instead of StallVT — the forked-checkpoint
// analog of MANA/DMTCP); with CkptPlan.Incremental, ranks whose state did
// not change since the previous committed epoch are recorded as references
// instead of re-written (the low-churn pattern: stragglers keep running
// after most ranks finish). Shards travel as streams, not blobs: each
// fresh shard encodes (a small gob header plus its payload bytes raw),
// compresses, and checksums straight into the store's shard writer
// through fixed-size buffers, with concurrent streams bounded
// in bytes by CkptPlan.StreamBudgetBytes (per-capture high-water reported
// as CheckpointStats.PeakEncodeBytes), so checkpointable image size is not
// capped by host RAM. Each capture seals one store epoch; restart loads
// any sealed epoch (RestartFromStore), streaming and resolving reference
// chains — a reference into a missing or unsealed parent fails with a
// descriptive error — and attributing corruption to the exact epoch and
// rank. The conformance engine's chain legs (ccverify -only
// incremental,delta,cdc), one per storage plan, assert digest equality from
// every epoch of a FileStore chain with the encode peak inside the stream
// budget, and its fault-injection suite (ccverify -only faults) kills ranks mid-drain and
// mid-capture and asserts the coordinator aborts with diagnostics instead
// of wedging.
//
// Chains do not grow forever: CkptPlan.KeepEpochs garbage-collects dead
// epochs after every seal (liveness traced through the manifests' shard
// references; GCStore), CkptPlan.CompactEvery periodically rewrites the
// chain head as a fresh self-contained epoch (CompactChain), bounding the
// newest epoch's restart read fan-in at CompactEvery epochs, and aborted-commit debris is swept along
// the way. The ccimg gc and compact subcommands run both offline, and every
// conformance chain leg asserts restart digests survive compaction + GC
// unchanged.
//
// # Storage pricing
//
// Checkpoint writes are priced as writes to a shared parallel filesystem.
// Restart reads are priced over the resolved shard set of the incremental
// chain (Report.RestartReadVT): older referenced epochs cost extra opens
// and per-shard seeks, so deeper chains restart slower. ARCHITECTURE.md has
// the full map.
package mana

import (
	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// Core types, re-exported from the runtime.
type (
	// App is a checkpointable MPI application; see the interface's
	// documentation for the step/snapshot contract.
	App = rt.App
	// Buffers is an App's named buffers and the checked snapshot layout.
	Buffers = rt.Buffers
	// Env is the per-rank MPI-facing API (sends, receives, collectives).
	Env = rt.Env
	// Config describes one job: size, placement, network, algorithm.
	Config = rt.Config
	// CkptPlan schedules a checkpoint during a run.
	CkptPlan = rt.CkptPlan
	// Report summarizes a run: virtual makespan, call counters, rates,
	// checkpoint statistics, and the captured image (exit mode).
	Report = rt.Report
	// JobImage is a serializable checkpoint of a whole job.
	JobImage = ckpt.JobImage
	// RankImage is one rank's shard of a job checkpoint.
	RankImage = ckpt.RankImage
	// Manifest is a store epoch's job-level header: geometry, epoch and
	// parent, plus the per-rank shard table.
	Manifest = ckpt.Manifest
	// Store is a checkpoint store: the staged pipeline's commit target,
	// holding a chain of capture epochs with incremental shard reuse.
	Store = ckpt.Store
	// FileStore is the on-disk Store (one directory per epoch).
	FileStore = ckpt.FileStore
	// MemStore is the in-memory Store.
	MemStore = ckpt.MemStore
	// StoreFault names one damaged shard found by VerifyStore.
	StoreFault = ckpt.StoreFault
	// GCStats reports what one GCStore pass reclaimed.
	GCStats = ckpt.GCStats
	// CheckpointStats records one checkpoint's drain and I/O costs.
	CheckpointStats = ckpt.CheckpointStats
	// Params holds the network/storage model constants.
	Params = netmodel.Params
	// EpochRead is one epoch's contribution to a restart's read fan-in
	// (see Model.RestartReadCost and ckpt.ReadSetOf).
	EpochRead = netmodel.EpochRead
	// CollKind enumerates collective operations (Bcast, Allreduce, ...).
	CollKind = netmodel.CollKind
	// Op is a reduction operation (OpSum, OpMax, OpMin, OpProd).
	Op = mpi.Op
)

// Checkpointing algorithms.
const (
	// AlgoNative runs without checkpoint support (the baseline).
	AlgoNative = rt.AlgoNative
	// Algo2PC is MANA's original two-phase-commit algorithm: an inserted
	// Ibarrier+test loop before every collective. High overhead; no
	// non-blocking collectives.
	Algo2PC = rt.Algo2PC
	// AlgoCC is the paper's collective-clock algorithm: near-zero runtime
	// overhead, non-blocking collectives supported.
	AlgoCC = rt.AlgoCC
)

// Checkpoint modes.
const (
	// ContinueAfterCapture resumes the job in place after the checkpoint.
	ContinueAfterCapture = ckpt.ContinueAfterCapture
	// ExitAfterCapture terminates the job at the checkpoint; restart from
	// the returned image (allocation chaining).
	ExitAfterCapture = ckpt.ExitAfterCapture
)

// Reduction operations.
const (
	OpSum    = mpi.OpSum
	OpMax    = mpi.OpMax
	OpMaxLoc = mpi.OpMaxLoc
	OpMinLoc = mpi.OpMinLoc
	OpMin    = mpi.OpMin
	OpProd   = mpi.OpProd
)

// Collective kinds.
const (
	Barrier       = netmodel.Barrier
	Bcast         = netmodel.Bcast
	Reduce        = netmodel.Reduce
	Allreduce     = netmodel.Allreduce
	Gather        = netmodel.Gather
	Allgather     = netmodel.Allgather
	Alltoall      = netmodel.Alltoall
	Scatter       = netmodel.Scatter
	ReduceScatter = netmodel.ReduceScatter
	Scan          = netmodel.Scan
)

// WorldVID is the virtual communicator id of MPI_COMM_WORLD.
const WorldVID = rt.WorldVID

// AnySource and AnyTag are receive wildcards.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Run executes one job: factory-created apps, one per rank, to completion
// or to a checkpoint-exit.
func Run(cfg Config, factory func(rank int) App) (*Report, error) {
	return rt.Run(cfg, factory)
}

// Restart rebuilds a job from a checkpoint image — a fresh lower half with
// the upper halves restored — and runs it onward. The image travels as the
// file it would be written to (its packed one-epoch store), so the restart
// takes RestartFromStore's read path and price.
func Restart(cfg Config, img *JobImage, factory func(rank int) App) (*Report, error) {
	data, err := img.Encode()
	if err != nil {
		return nil, err
	}
	store, err := ckpt.OpenImage(data)
	if err != nil {
		return nil, err
	}
	return rt.RestartFromStore(cfg, store, -1, factory)
}

// RestartFromStore rebuilds a job from a checkpoint store epoch, resolving
// incremental shard references through the chain. epoch < 0 selects the
// newest sealed epoch.
func RestartFromStore(cfg Config, store Store, epoch int, factory func(rank int) App) (*Report, error) {
	return rt.RestartFromStore(cfg, store, epoch, factory)
}

// NewFileStore opens (creating if needed) an on-disk checkpoint store.
func NewFileStore(dir string) (*FileStore, error) { return ckpt.NewFileStore(dir) }

// NewMemStore creates an in-memory checkpoint store.
func NewMemStore() *MemStore { return ckpt.NewMemStore() }

// LatestEpoch returns a store's newest sealed epoch, or -1 with an error
// when the store is unreadable or empty (epoch 0 is valid, so the error
// return must not alias it).
func LatestEpoch(store Store) (int, error) { return ckpt.LatestEpoch(store) }

// GCStore reclaims a store's dead epochs, keeping the newest `keep` sealed
// epochs plus everything their manifests transitively reference, and
// sweeping aborted-commit debris.
func GCStore(store Store, keep int) (*GCStats, error) { return ckpt.GCStore(store, keep) }

// CompactChain rewrites one sealed epoch's resolved shard set into a fresh
// self-contained epoch (verified byte-identical copies; restart digest
// unchanged), restoring the depth-1 restart read cost and making the old
// chain reclaimable by GCStore.
func CompactChain(store Store, epoch int) (*Manifest, error) {
	man, _, err := ckpt.CompactChain(store, epoch, nil)
	return man, err
}

// LoadJobImage materializes one store epoch as a job image, resolving and
// verifying every shard through the reference chain.
func LoadJobImage(store Store, epoch int) (*JobImage, error) { return ckpt.LoadJobImage(store, epoch) }

// VerifyStore walks every sealed epoch of a store, verifying manifests,
// reference resolution, and shard integrity, attributing faults per
// (epoch, rank).
func VerifyStore(store Store) ([]StoreFault, error) { return ckpt.VerifyStore(store) }

// PerlmutterLike returns network parameters resembling a Slingshot-11
// system with 128 ranks per node (the paper's testbed).
func PerlmutterLike() Params { return netmodel.PerlmutterLike() }

// EthernetLike returns parameters resembling a commodity gigabit cluster.
func EthernetLike() Params { return netmodel.EthernetLike() }

// F64Bytes encodes a float64 vector as a little-endian payload for sends
// and collective buffers.
func F64Bytes(xs []float64) []byte { return mpi.F64Bytes(xs) }

// BytesF64 decodes a little-endian float64 payload.
func BytesF64(b []byte) []float64 { return mpi.BytesF64(b) }
