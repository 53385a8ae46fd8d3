// Package mpi is an in-process MPI simulator: the "lower half" of the split
// process architecture (paper §2.2). Each MPI rank is a goroutine carrying a
// virtual clock; messages and collectives cost virtual time according to an
// injected netmodel.Model.
//
// The simulator implements the slice of MPI-4.0 semantics the paper's
// algorithms depend on:
//
//   - communicators and groups, and MPI_Comm_split;
//   - point-to-point send/recv with tags, MPI_ANY_SOURCE/MPI_ANY_TAG, and
//     non-overtaking FIFO matching per (source, communicator, tag);
//   - blocking collectives of every netmodel.CollKind through one call,
//     Comm.Collective, that may be synchronizing (Barrier, Allreduce,
//     Allgather, Alltoall, Scan, ReduceScatter synchronize; Bcast, Reduce,
//     Gather, Scatter do not — root/leaves exit early, §3);
//   - non-blocking receives and collectives (Irecv, Comm.ICollective) with
//     request objects completed by Wait and polled by Done; a non-blocking
//     collective completes only after every participant has initiated it,
//     after which it progresses independently of all other operations
//     (MPI-4.0 Example 6.36, quoted in paper §3).
//
// The simulator deliberately knows nothing about checkpointing: the CC and
// 2PC algorithms interpose on it from the outside, exactly as MANA's upper
// half wraps a real MPI library.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mana/internal/netmodel"
	"mana/internal/trace"
)

// Reserved rank and tag wildcards, mirroring MPI constants.
const (
	AnySource = -1
	AnyTag    = -1
)

// World is one simulated MPI job: N ranks placed PPN-per-node, sharing a
// network model. It corresponds to MPI_COMM_WORLD plus the fabric beneath it.
type World struct {
	N     int
	Model *netmodel.Model

	procs []*Proc
	mail  []*mailbox

	worldCore *commCore

	mu    sync.Mutex
	cores map[uint64]*commCore // interned child communicators by id

	// Deadlock watchdog and abort machinery (see watchdog.go).
	activity   atomic.Uint64
	abortMu    sync.Mutex
	abortErr   error
	abortHooks []func()
	abortCh    chan struct{}
}

// NewWorld creates a world of n ranks with the given model. It panics on a
// non-positive rank count (programmer error).
func NewWorld(n int, model *netmodel.Model) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", n))
	}
	w := &World{N: n, Model: model, abortCh: make(chan struct{})}
	w.procs = make([]*Proc, n)
	w.mail = make([]*mailbox, n)
	for i := 0; i < n; i++ {
		w.procs[i] = &Proc{w: w, rank: i, Ct: &trace.Counters{}}
		w.mail[i] = newMailbox()
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	group := NewGroup(ranks)
	w.worldCore = newCommCore(w, worldCommID, group)
	return w
}

// Proc returns the rank's process handle.
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// WorldComm returns rank's handle on MPI_COMM_WORLD.
func (w *World) WorldComm(rank int) *Comm {
	return &Comm{core: w.worldCore, p: w.procs[rank], myRank: rank}
}

// MaxTime returns the largest virtual time across all ranks — the job's
// virtual makespan. Call only after all rank goroutines have quiesced.
func (w *World) MaxTime() float64 {
	var m float64
	for _, p := range w.procs {
		if t := p.Clk.Now(); t > m {
			m = t
		}
	}
	return m
}

// WakeAll broadcasts every mailbox condition variable. External controllers
// (the checkpoint coordinator) call this after changing state that blocked
// ranks may be waiting on.
func (w *World) WakeAll() {
	for _, mb := range w.mail {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// Proc is one simulated MPI process (one rank of MPI_COMM_WORLD).
type Proc struct {
	w    *World
	rank int

	// Clk is the rank's virtual clock, owned by the rank goroutine.
	Clk Clock
	// Ct accumulates the rank's call/byte counters.
	Ct *trace.Counters

	// waitSite labels what the rank is currently blocked on (nil: running),
	// for the deadlock watchdog's diagnostic dump. The simulator's own
	// labels are static strings, so labelling a wait allocates nothing.
	waitSite atomic.Pointer[string]

	freeReqs []*Request // completed requests handed back through Request.Free
}

// Wait-site labels of the simulator's own blocking calls.
var (
	siteCollective  = "collective"
	siteRequestWait = "request-wait"
)

// Rank returns the world rank.
func (p *Proc) Rank() int { return p.rank }

// World returns the owning world.
func (p *Proc) World() *World { return p.w }

// Compute charges d seconds of application computation to the rank.
func (p *Proc) Compute(d float64) {
	p.Clk.Advance(d)
	p.w.NoteActivity()
}

// SetWaitSite labels what this rank is blocked on (see World.SetWaitSite).
func (p *Proc) SetWaitSite(site string) {
	if site == "" {
		p.waitSite.Store(nil)
		return
	}
	p.waitSite.Store(&site)
}

// WaitUntil blocks the rank until pred() reports true. pred is evaluated
// under the rank's mailbox lock, so it may inspect state that message
// arrivals or WakeAll mutate. Used by the checkpointing layer to park ranks
// and by Wait_for_new_targets-style loops.
func (p *Proc) WaitUntil(pred func() bool) { p.WaitUntilAt(nil, pred) }

// WaitUntilAt is WaitUntil under a wait-site label: site (a static string;
// nil keeps the current label) names the wait for as long as the rank
// sleeps in it.
func (p *Proc) WaitUntilAt(site *string, pred func() bool) {
	mb := p.w.mail[p.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	slept := false
	for !pred() {
		p.w.checkAbort()
		if site != nil {
			p.waitSite.Store(site) // each cycle: pred may have relabelled the rank
		}
		slept = true
		mb.cond.Wait()
	}
	if site != nil && slept {
		p.waitSite.Store(nil)
	}
}

// Wake wakes a (possibly) blocked rank so it re-evaluates its WaitUntil
// predicate.
func (w *World) Wake(rank int) {
	mb := w.mail[rank]
	mb.mu.Lock()
	mb.cond.Broadcast()
	mb.mu.Unlock()
}
