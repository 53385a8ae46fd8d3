package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

// UpdateTag is the reserved tag for target-update messages on the hidden
// control communicator (the paper's "mana_updates_tag" on "mana_comm").
// Applications must not use it.
const UpdateTag = 1 << 30

// CC is the job-wide collective-clock algorithm.
type CC struct {
	coord *ckpt.Coordinator
	// ranks is indexed by world rank. Each rank's goroutine fills its own
	// slot before the runner's startup barrier, which orders it before any
	// checkpoint request reads the table. The ranks' SEQ tables are also the
	// group membership: a rank's table has an entry for exactly the groups
	// it registered.
	ranks []*Rank

	// gate orders sequence-number increments against target installation:
	// increments hold it shared, Algorithm 1's snapshot-and-install holds it
	// exclusive. An increment therefore either precedes the snapshot (and is
	// counted in the targets) or follows it (and observes the pending flag,
	// raising and fanning out the target itself). Without this, a rank could
	// slip a collective past the target computation and block inside it with
	// no peer obliged to join — a deadlock.
	gate sync.RWMutex

	updatesSent     atomic.Int64
	updatesConsumed atomic.Int64
}

// New creates the CC algorithm bound to a coordinator and registers itself.
func New(coord *ckpt.Coordinator) *CC {
	cc := &CC{coord: coord, ranks: make([]*Rank, coord.W.N)}
	coord.SetAlgorithm(cc)
	return cc
}

// Name implements ckpt.Algorithm.
func (cc *CC) Name() string { return "cc" }

// NewRank implements ckpt.Algorithm.
func (cc *CC) NewRank(p *mpi.Proc, world *mpi.Comm) ckpt.Protocol {
	r := &Rank{
		cc:     cc,
		p:      p,
		mana:   p.World().WorldComm(p.Rank()), // hidden control channel
		seq:    make(map[uint64]uint64),
		target: make(map[uint64]uint64),
	}
	cc.ranks[p.Rank()] = r
	return r
}

// OnCheckpointRequest implements Algorithm 1: compute, per group, the
// maximum sequence number over the members and install it as the target at
// every member. The members of a group are the ranks whose SEQ table holds
// it. In MANA this initial exchange rides the DMTCP coordinator's
// out-of-band socket; here the coordinator object reads each rank's table
// directly (the signal-handler analog). All later target changes travel as
// real simulated MPI messages (Algorithm 2's SEND step).
func (cc *CC) OnCheckpointRequest() {
	// Exclusive section: no sequence number can move while the snapshot is
	// taken and the targets installed, and the pending flag becomes visible
	// to wrappers before any later increment.
	cc.gate.Lock()
	defer cc.gate.Unlock()
	cc.coord.MarkPending()

	targets := make(map[uint64]uint64)
	for _, r := range cc.ranks {
		r.mu.Lock()
		for g, s := range r.seq {
			targets[g] = max(targets[g], s)
		}
		r.mu.Unlock()
	}
	for _, r := range cc.ranks {
		r.mu.Lock()
		for g := range r.seq {
			r.target[g] = targets[g]
		}
		r.hasTargets = true
		r.mu.Unlock()
	}
}

// Quiesced implements ckpt.Algorithm: with every rank parked, the drain is
// complete when every rank has reached every target, no target-update
// message is unconsumed, and every non-blocking collective has been drained
// to completion (§4.3.2).
func (cc *CC) Quiesced() bool {
	if cc.updatesSent.Load() != cc.updatesConsumed.Load() {
		return false
	}
	for _, r := range cc.ranks {
		if r == nil {
			continue
		}
		if !r.reachedAllTargets() || r.nbPending() > 0 {
			return false
		}
	}
	return true
}

// VerifySafeState implements ckpt.Algorithm: the capture-time invariant
// check. Every member of every group must hold the same target, equal to its
// sequence number, with no residual non-blocking operations or updates.
func (cc *CC) VerifySafeState() error {
	if s, c := cc.updatesSent.Load(), cc.updatesConsumed.Load(); s != c {
		return fmt.Errorf("cc: %d target updates sent but %d consumed", s, c)
	}
	first := make(map[uint64][2]uint64) // group -> its lowest member and that member's SEQ
	for _, r := range cc.ranks {
		if err := r.verifyTargets(first); err != nil {
			return err
		}
	}
	for _, r := range cc.ranks {
		if r != nil && r.nbPending() > 0 {
			return fmt.Errorf("cc: rank %d still has incomplete non-blocking collectives", r.p.Rank())
		}
	}
	return nil
}

// Rank is the CC algorithm's per-rank state: the wrapper functions plus the
// SEQ/TARGET tables of §4.1.
type Rank struct {
	cc   *CC
	p    *mpi.Proc
	mana *mpi.Comm

	mu         sync.Mutex // guards seq/target (coordinator reads cross-thread)
	seq        map[uint64]uint64
	target     map[uint64]uint64
	hasTargets bool

	nbMu sync.Mutex
	nb   []*mpi.Request // outstanding non-blocking collectives (for drain)
}

// Name implements ckpt.Protocol.
func (r *Rank) Name() string { return "cc" }

// RegisterComm implements ckpt.Protocol: initialize SEQ[ggid]=0 the first
// time a group is seen (§4.2.1). The entry is the rank's membership in the
// group for target computation; update fan-out reads ci.Members.
func (r *Rank) RegisterComm(ci *ckpt.CommInfo) {
	r.mu.Lock()
	if _, ok := r.seq[ci.Ggid]; !ok {
		r.seq[ci.Ggid] = 0
	}
	r.mu.Unlock()
}

// verifyTargets checks, for every group in r's table, that SEQ equals
// TARGET and equals the SEQ of the group's lowest member, which first
// records for the ranks' lower-to-higher walk.
func (r *Rank) verifyTargets(first map[uint64][2]uint64) error {
	w := r.p.Rank()
	r.mu.Lock()
	defer r.mu.Unlock()
	for g, seq := range r.seq {
		if tgt := r.target[g]; seq != tgt {
			return fmt.Errorf("cc: rank %d group %x: SEQ %d != TARGET %d", w, g, seq, tgt)
		}
		if f, ok := first[g]; !ok {
			first[g] = [2]uint64{uint64(w), seq}
		} else if seq != f[1] {
			return fmt.Errorf("cc: group %x: rank %d at %d, rank %d at %d", g, f[0], f[1], w, seq)
		}
	}
	return nil
}

// reachedAllTargets reports SEQ[g] >= TARGET[g] for every group this rank
// participates in (the negation of Condition A′'s "proceed" test).
func (r *Rank) reachedAllTargets() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for g, t := range r.target {
		if r.seq[g] < t {
			return false
		}
	}
	return true
}

// behindSomeTarget is the Condition A′ test: the rank must keep executing
// iff SEQ[g] < TARGET[g] for some group g.
func (r *Rank) behindSomeTarget() bool { return !r.reachedAllTargets() }

// bump increments SEQ[ggid] for an executing collective and, while a
// checkpoint is pending, raises and fans out the target when the sequence
// number overshoots it (Algorithm 2's boldface SEND step). The shared gate
// orders the increment against Algorithm 1's target snapshot.
func (r *Rank) bump(ci *ckpt.CommInfo) {
	r.cc.gate.RLock()
	pending := r.cc.coord.Pending()
	r.mu.Lock()
	r.seq[ci.Ggid]++
	var notify bool
	var newT uint64
	if pending && r.hasTargets {
		if r.seq[ci.Ggid] > r.target[ci.Ggid] {
			r.target[ci.Ggid] = r.seq[ci.Ggid]
			newT = r.seq[ci.Ggid]
			notify = true
		}
	}
	r.mu.Unlock()
	r.cc.gate.RUnlock()

	if notify {
		payload := make([]byte, 16)
		binary.LittleEndian.PutUint64(payload[0:8], ci.Ggid)
		binary.LittleEndian.PutUint64(payload[8:16], newT)
		me := r.p.Rank()
		n := 0
		for _, w := range ci.Members {
			if w == me {
				continue
			}
			// The peer world ranks are discoverable locally via
			// MPI_Group_translate_ranks (§4.2.4); on the hidden world-shaped
			// control comm, comm rank == world rank.
			r.mana.Send(w, UpdateTag, payload)
			n++
		}
		r.cc.updatesSent.Add(int64(n))
		r.p.Ct.TargetUpdatesSent += int64(n)
		r.cc.coord.Poke()
	}
}

// absorbUpdates implements the RECEIVE side of Algorithm 3: consume every
// queued target-update message and raise local targets.
func (r *Rank) absorbUpdates() {
	for r.mana.HasQueued(mpi.AnySource, UpdateTag) {
		buf := make([]byte, 16)
		r.mana.Recv(mpi.AnySource, UpdateTag, buf)
		g := binary.LittleEndian.Uint64(buf[0:8])
		t := binary.LittleEndian.Uint64(buf[8:16])
		r.mu.Lock()
		if t > r.target[g] {
			r.target[g] = t
		}
		r.mu.Unlock()
		r.cc.updatesConsumed.Add(1)
		r.p.Ct.TargetUpdatesRecv++
	}
}

// nbPending prunes completed non-blocking collectives and returns how many
// remain incomplete. Testing a request here is the §4.3.2 drain loop.
func (r *Rank) nbPending() int {
	r.nbMu.Lock()
	defer r.nbMu.Unlock()
	live := r.nb[:0]
	for _, req := range r.nb {
		if !req.Done() {
			live = append(live, req)
		} else {
			r.p.Ct.DrainTests++
		}
	}
	r.nb = live
	return len(r.nb)
}

// Collective implements ckpt.Protocol for blocking collectives: the
// Algorithm 2 wrapper. On the fast path (no checkpoint pending) the total
// added cost is one interposition charge and a local counter increment — no
// network operations, the heart of the paper's overhead claim.
func (r *Rank) Collective(ci *ckpt.CommInfo, desc func() *ckpt.Descriptor, exec func()) ckpt.Outcome {
	model := r.p.World().Model
	r.p.Ct.WrapperCalls++
	r.p.Clk.Advance(model.P.WrapperCost)

	if !r.cc.coord.Pending() {
		// Fast path: the whole cost of CC during normal execution. bump
		// re-checks the pending flag under the gate, so a request landing
		// right here is still handled correctly.
		r.bump(ci)
		exec()
		return ckpt.Proceed
	}

	// Checkpoint pending: Wait_for_new_targets at wrapper entry (Algorithm
	// 3). If every target is reached, this rank parks here — executing the
	// next collective would overshoot; the park point is capturable.
	r.absorbUpdates()
	if r.reachedAllTargets() {
		d := ckpt.Describe(desc, ckpt.ParkPreCollective)
		out := r.cc.coord.ParkUntil(r.p.Rank(), d, func() ckpt.Decision {
			r.absorbUpdates()
			if r.behindSomeTarget() {
				return ckpt.Resume
			}
			r.nbPending() // drain non-blocking collectives while parked
			return ckpt.Stay
		})
		switch out {
		case ckpt.Terminated:
			return ckpt.Terminated
		case ckpt.Released:
			// Captured and released: execute normally (no longer pending).
			r.bump(ci)
			exec()
			return ckpt.Proceed
		}
		// Proceed: a new target arrived — this collective must execute as
		// part of the drain.
	}

	r.bump(ci)
	exec()
	// Executing a collective may have completed a peer's non-blocking
	// operation or raised targets; wake parked ranks to re-evaluate.
	r.absorbUpdates()
	r.cc.coord.Poke()
	return ckpt.Proceed
}

// Initiate implements ckpt.Protocol for non-blocking collective initiations:
// SEQ is incremented at initiation (§4.3.1), guaranteeing all payload
// messages are in flight before the safe state. Initiations never park (they
// are non-blocking); the drain happens at wait points and while parked.
func (r *Rank) Initiate(ci *ckpt.CommInfo, exec func() *mpi.Request) *mpi.Request {
	model := r.p.World().Model
	r.p.Ct.WrapperCalls++
	r.p.Clk.Advance(model.P.WrapperCost)

	if !r.cc.coord.Pending() {
		r.bump(ci)
		req := exec()
		r.track(req)
		return req
	}

	r.absorbUpdates()
	r.bump(ci)
	req := exec()
	r.track(req)
	r.cc.coord.Poke()
	return req
}

// track records a non-blocking collective for the drain. The list is pruned
// of completed requests whenever it fills its capacity, which grows only
// when more than half of it is still incomplete: it stays within a few times
// the rank's incomplete requests, at amortized O(1) work a call and with no
// allocation once grown. These removals are bookkeeping, not drain tests:
// only nbPending counts DrainTests.
func (r *Rank) track(req *mpi.Request) {
	r.nbMu.Lock()
	if len(r.nb) == cap(r.nb) {
		r.nb = slices.DeleteFunc(r.nb, (*mpi.Request).Done)
		if len(r.nb) > cap(r.nb)/2 {
			r.nb = slices.Grow(r.nb, cap(r.nb))
		}
	}
	r.nb = append(r.nb, req)
	r.nbMu.Unlock()
}

// HoldAtWait implements ckpt.Protocol: called when the rank would block in a
// point-to-point or request wait. If the rank has reached its targets it
// parks (capturable, with the incomplete receives recorded in desc);
// otherwise it blocks until the operation completes or protocol state
// changes, then lets the caller re-check.
func (r *Rank) HoldAtWait(desc *ckpt.Descriptor, done func() bool) ckpt.Outcome {
	if !r.cc.coord.Pending() {
		return ckpt.Proceed
	}
	r.absorbUpdates()
	if done() {
		return ckpt.Proceed
	}
	if r.reachedAllTargets() {
		return r.cc.coord.ParkUntil(r.p.Rank(), desc, func() ckpt.Decision {
			r.absorbUpdates()
			if done() || r.behindSomeTarget() {
				return ckpt.Resume
			}
			r.nbPending()
			return ckpt.Stay
		})
	}
	// Behind some target but blocked on a receive: in a correct MPI program
	// the matching send precedes the sender's next collective (Figure 4), so
	// the sender is still executing and the message will arrive. Block until
	// something changes.
	r.cc.coord.WaitFor(func() bool {
		return done() || !r.cc.coord.Pending() || r.mana.HasQueued(mpi.AnySource, UpdateTag)
	})
	return ckpt.Proceed
}

// AtBoundary implements ckpt.Protocol: the runner calls it between steps
// and at program end.
//
// A mid-run step boundary is NOT a park point: the paper's algorithm parks
// only at collective wrappers, and that is load-bearing. A rank that has
// reached its targets may still owe point-to-point sends in its upcoming
// steps; peers that are behind their targets can be blocked waiting for
// exactly those sends. Parking here would deadlock the drain (found by the
// randomized checkpoint fuzzer under race-detector scheduling). Instead the
// rank keeps executing — sends flow, pure-compute steps run — until it
// reaches its next collective wrapper (where Collective parks it), a
// point-to-point wait (HoldAtWait), or the end of its program, which is the
// one boundary that is a park point.
func (r *Rank) AtBoundary(desc *ckpt.Descriptor) ckpt.Outcome {
	if !r.cc.coord.Pending() {
		return ckpt.Proceed
	}
	r.absorbUpdates()
	if desc.Kind != ckpt.ParkDone {
		return ckpt.Proceed
	}
	return r.cc.coord.ParkUntil(r.p.Rank(), desc, func() ckpt.Decision {
		r.absorbUpdates()
		if r.behindSomeTarget() {
			// A finished rank cannot execute more collectives; if a target
			// exceeds its final sequence number the program was erroneous.
			// Stay parked; VerifySafeState will report the inconsistency.
			return ckpt.Stay
		}
		r.nbPending()
		return ckpt.Stay
	})
}

// Protocol snapshot layout: the sequence table as fixed-width little-endian
// words — a count n, then n (group, seq) uint64 pairs in strictly
// increasing group order — 8 + 16·n bytes. Sorting, not the map's iteration
// order, makes identical logical state serialize to identical bytes, and
// byte-stable snapshots are what the incremental checkpoint pipeline diffs
// against: a quiescent rank's shard must hash equal across epochs or it can
// never be reused.

// Snapshot implements ckpt.Protocol.
func (r *Rank) Snapshot() ([]byte, error) {
	r.mu.Lock()
	pairs := make([][2]uint64, 0, len(r.seq))
	for g, s := range r.seq {
		pairs = append(pairs, [2]uint64{g, s})
	}
	r.mu.Unlock()
	slices.SortFunc(pairs, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	buf := make([]byte, 0, 8+16*len(pairs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(pairs)))
	for _, p := range pairs {
		buf = binary.LittleEndian.AppendUint64(buf, p[0])
		buf = binary.LittleEndian.AppendUint64(buf, p[1])
	}
	return buf, nil
}

// Restore implements ckpt.Protocol. Empty data is a no-op: a native image
// carries no protocol bytes. Otherwise the count is bounded by the bytes
// present before it is multiplied, the length must be exactly 8 + 16·n, and
// the groups must strictly increase; a snapshot in any other shape — the
// retired gob layout included — is refused.
func (r *Rank) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if len(data) < 8 {
		return fmt.Errorf("cc: restore rank %d: %d bytes, shorter than the count word", r.p.Rank(), len(data))
	}
	n, pairs := binary.LittleEndian.Uint64(data), data[8:]
	if n > uint64(len(pairs))/16 || uint64(len(pairs)) != 16*n {
		return fmt.Errorf("cc: restore rank %d: %d groups claimed, %d bytes of pairs", r.p.Rank(), n, len(pairs))
	}
	seq := make(map[uint64]uint64, n)
	for prev := uint64(0); len(pairs) > 0; pairs = pairs[16:] {
		g := binary.LittleEndian.Uint64(pairs)
		if len(seq) > 0 && g <= prev {
			return fmt.Errorf("cc: restore rank %d: group %x after %x (groups must strictly increase)", r.p.Rank(), g, prev)
		}
		seq[g], prev = binary.LittleEndian.Uint64(pairs[8:]), g
	}
	r.mu.Lock()
	r.seq = seq
	r.target = make(map[uint64]uint64)
	r.hasTargets = false
	r.mu.Unlock()
	return nil
}
