// Package twopc implements MANA's original two-phase-commit algorithm for
// collective communication (paper §2.2), the baseline the collective-clock
// algorithm replaces. The wrapper inserts an MPI_Ibarrier followed by a test
// loop in front of every blocking collective:
//
//   - If, at checkpoint time, some member has not yet entered the barrier,
//     the members already inside the test loop can safely stop there — the
//     stragglers cannot have started the real collective. On restart they
//     call MPI_Ibarrier again before continuing.
//   - If every member has entered the barrier, the barrier completes and all
//     members proceed through the real collective, then stop at their next
//     wrapper.
//
// The inserted barrier forces synchronization on every collective call,
// which is exactly the high runtime overhead the paper measures (e.g. a
// 4-byte MPI_Bcast pays a full barrier although its root would otherwise
// exit immediately). 2PC does not support non-blocking collectives — the
// test loop cannot be reconciled with initiation/completion splitting — so
// applications like the Poisson solver cannot run under it (Table 1 "NA").
package twopc

import (
	"fmt"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

// TwoPC is the job-wide 2PC algorithm.
type TwoPC struct {
	coord *ckpt.Coordinator
}

// New creates the 2PC algorithm bound to a coordinator and registers itself.
func New(coord *ckpt.Coordinator) *TwoPC {
	t := &TwoPC{coord: coord}
	coord.SetAlgorithm(t)
	return t
}

// Name implements ckpt.Algorithm.
func (t *TwoPC) Name() string { return "2pc" }

// NewRank implements ckpt.Algorithm.
func (t *TwoPC) NewRank(p *mpi.Proc, world *mpi.Comm) ckpt.Protocol {
	return &Rank{t: t, p: p}
}

// OnCheckpointRequest implements ckpt.Algorithm. 2PC needs no target
// computation: the inserted barriers provide the atomicity.
func (t *TwoPC) OnCheckpointRequest() {}

// Quiesced implements ckpt.Algorithm: once every rank is parked, the state
// is safe (parked ranks are never inside a real collective, and a barrier
// with a pre-collective-parked member cannot have completed).
func (t *TwoPC) Quiesced() bool { return true }

// VerifySafeState implements ckpt.Algorithm.
func (t *TwoPC) VerifySafeState() error { return nil }

// Rank is the per-rank 2PC wrapper state.
type Rank struct {
	t *TwoPC
	p *mpi.Proc
}

// Name implements ckpt.Protocol.
func (r *Rank) Name() string { return "2pc" }

// RegisterComm implements ckpt.Protocol (2PC keeps no per-group state).
func (r *Rank) RegisterComm(ci *ckpt.CommInfo) {}

// Collective implements ckpt.Protocol: the 2PC wrapper.
func (r *Rank) Collective(ci *ckpt.CommInfo, desc func() *ckpt.Descriptor, exec func()) ckpt.Outcome {
	model := r.p.World().Model
	r.p.Ct.WrapperCalls++
	r.p.Clk.Advance(model.P.WrapperCost)

	// At checkpoint time, a rank that has not yet issued its barrier stops
	// in front of it; the members already polling cannot pass a barrier this
	// rank never enters.
	if r.t.coord.Pending() {
		d := ckpt.Describe(desc, ckpt.ParkPreCollective)
		if r.t.coord.ParkUntil(r.p.Rank(), d, func() ckpt.Decision { return ckpt.Stay }) == ckpt.Terminated {
			return ckpt.Terminated
		}
	}

	// The inserted synchronization: MPI_Ibarrier plus a test loop.
	req := ci.Comm.Ibarrier()
	r.p.Ct.Barriers2PC++
	if r.waitBarrier(req, desc) {
		return ckpt.Terminated
	}
	if r.t.coord.Pending() {
		// This rank may have been the one to complete the barrier after a
		// peer parked inside its test loop. Completion wakes mailboxes, but
		// a parked rank sleeps on the coordinator: without this it would
		// never re-test, and the collective below would wait for it forever.
		r.t.coord.Poke()
	}

	exec()
	if r.t.coord.Pending() {
		// Passing a barrier (and the collective) may unblock peers polling
		// the same slot; wake them.
		r.t.coord.Poke()
	}
	return ckpt.Proceed
}

// waitBarrier emulates the "loop of calls to MPI_Test" on the inserted
// barrier, checkpoint-aware: while a checkpoint is pending the rank parks
// inside the loop (capturable, ParkInBarrier) and resumes only if the
// barrier completes — which can happen only when every member issued it
// before stopping. The virtual cost of the polling loop is charged on the
// poll grid, exactly like an uninterrupted test loop. Returns true if the
// rank was checkpoint-terminated.
func (r *Rank) waitBarrier(req *mpi.Request, desc func() *ckpt.Descriptor) bool {
	start := r.p.Clk.Now()
	for !req.Done() {
		if r.t.coord.Pending() {
			d := ckpt.Describe(desc, ckpt.ParkInBarrier)
			out := r.t.coord.ParkUntil(r.p.Rank(), d, func() ckpt.Decision {
				if req.Done() {
					return ckpt.Resume
				}
				return ckpt.Stay
			})
			if out == ckpt.Terminated {
				return true
			}
			continue
		}
		// Block until the barrier completes — or a checkpoint request
		// arrives, turning the wait park-aware.
		r.p.WaitUntil(func() bool { return req.Done() || r.t.coord.Pending() })
	}
	req.Wait() // completed: synchronize the clock
	req.Free()
	if interval := r.p.World().Model.P.PollInterval; interval > 0 {
		waited := r.p.Clk.Now() - start
		if waited < 0 {
			waited = 0
		}
		polls := int64(waited/interval) + 1
		r.p.Ct.Tests += polls
		r.p.Clk.SyncTo(start + float64(polls)*interval)
	}
	return false
}

// Initiate implements ckpt.Protocol: 2PC does not support non-blocking
// collectives; reaching this is a harness configuration error.
func (r *Rank) Initiate(ci *ckpt.CommInfo, exec func() *mpi.Request) *mpi.Request {
	panic(fmt.Sprintf("twopc: rank %d initiated a non-blocking collective; "+
		"2PC does not support non-blocking collective communication", r.p.Rank()))
}

// HoldAtWait implements ckpt.Protocol: a rank blocked in a point-to-point
// wait parks unconditionally (2PC has no drain targets to chase).
func (r *Rank) HoldAtWait(desc *ckpt.Descriptor, done func() bool) ckpt.Outcome {
	if !r.t.coord.Pending() {
		return ckpt.Proceed
	}
	if done() {
		return ckpt.Proceed
	}
	return r.t.coord.ParkUntil(r.p.Rank(), desc, func() ckpt.Decision {
		if done() {
			return ckpt.Resume
		}
		return ckpt.Stay
	})
}

// AtBoundary implements ckpt.Protocol. Mid-run step boundaries are not park
// points (a parked rank could still owe point-to-point sends that blocked
// peers need — see the CC implementation's note); only the end of the
// program parks here.
func (r *Rank) AtBoundary(desc *ckpt.Descriptor) ckpt.Outcome {
	if !r.t.coord.Pending() || desc.Kind != ckpt.ParkDone {
		return ckpt.Proceed
	}
	return r.t.coord.ParkUntil(r.p.Rank(), desc, func() ckpt.Decision { return ckpt.Stay })
}

// Snapshot implements ckpt.Protocol (2PC has no durable per-rank state).
func (r *Rank) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements ckpt.Protocol.
func (r *Rank) Restore(data []byte) error { return nil }
