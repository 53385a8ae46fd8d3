// Package rt is the rank runtime: it hosts applications on top of the MPI
// simulator and the checkpointing protocols, playing the role of MANA's
// upper half. Applications are step-structured state machines; the runtime
// drives their steps, routes every MPI call through the active protocol's
// wrappers, parks ranks at capturable points, and performs restart.
package rt

import "io"

// App is a checkpointable MPI application.
//
// Transparent checkpointing of raw Go stacks is impossible (the Go runtime's
// threads cannot be serialized), so the runtime substitutes DMTCP's
// memory-blob capture with an explicit contract — the checkpointing
// *algorithms* (CC, 2PC) are unaffected; only the capture mechanism differs:
//
//   - Setup must be deterministic: given the same rank and configuration it
//     creates the same communicators (in the same order) and allocates the
//     same named buffers. Restart replays Setup to rebuild the lower half,
//     then Restore overwrites the state.
//   - The constructor and Setup build nothing that a snapshot carries,
//     beyond the named buffers Restore fills in place. A restarted rank runs
//     both and then Restore, so any state they fill is paid for and thrown
//     away; build it on first use instead (the first Step or SnapshotTo).
//     The split-process model restores the upper half's memory the same
//     way, without re-running its initialisation.
//   - All mutable state lives in the App value and is captured by
//     SnapshotTo, the one way an App serializes itself.
//   - Each Step performs at most one *blocking* MPI batch (one blocking
//     collective, or one WaitAll), as its final action, and the state
//     machine's program counter must be advanced *before* issuing it;
//     post-processing of the results belongs to the following Step.
//     Non-blocking initiations and eager sends are unrestricted. This makes
//     every park point resumable: a pending collective is re-issued from
//     its descriptor (results land in the named buffers), pending receives
//     are re-posted, and execution continues with the next Step — which,
//     thanks to the pre-advanced counter, is the step after the blocking
//     batch, never a re-execution of work that already happened.
//
// Ranks park (become capturable) only at collective wrapper entries, inside
// waits where they were natively blocked, and at program end — never at
// mid-run step boundaries, where a parked rank's unsent point-to-point
// messages could deadlock lagging peers (see the AtBoundary comment in
// internal/core/cc.go).
//   - Communication buffers that receive data are *named*: Buffer(id)
//     resolves them so pending receives can be re-posted into restored
//     state after restart.
//
// Buffers holds an App's named buffers (Buffer returns bufs.Get(id)) and
// lays its snapshot out. Its Restore refuses a snapshot of another length, a
// phase Step has no case for, an iteration past the run or other buffers,
// leaving the rank as it was. For an app whose state is Iter, Phase and Acc:
//
//	func (c *counter) SnapshotTo(w io.Writer) error {
//		return c.bufs.SnapshotTo(w, []uint64{uint64(c.Iter), uint64(c.Phase), math.Float64bits(c.Acc)})
//	}
//
//	func (c *counter) Restore(data []byte) error {
//		var h [3]uint64
//		if err := c.bufs.Restore("counter", data, h[:], 2, c.Iters); err != nil { // phases 0 and 1
//			return err
//		}
//		c.Iter, c.Phase, c.Acc = int(h[0]), int(h[1]), math.Float64frombits(h[2])
//		return nil
//	}
type App interface {
	// Name identifies the application (used in reports).
	Name() string
	// Setup creates communicators and buffers. It runs both on fresh starts
	// and on restarts (before Restore).
	Setup(env *Env) error
	// Step advances the application by one unit of work, returning false
	// when the program is complete.
	Step(env *Env) (more bool, err error)
	// StreamSnapshotter serializes all mutable state (the upper-half image).
	StreamSnapshotter
	// Restore rebuilds state from SnapshotTo's bytes. It may keep data,
	// and the capacity past it, as the rank's own: a restarted rank is
	// handed the bytes it was restored from (see Restart), and nothing else
	// writes them while the app keeps them. An app that keeps data hands
	// back, as its snapshot's only Write for as long as it keeps it, a run
	// of data[:cap(data)] that starts at its first byte or ends at its last;
	// that is how the runtime tells a kept buffer from a dead one. An app
	// that copies out of data keeps no reference to it, and the rank's first
	// capture writes into it. A Restore that fails keeps nothing.
	Restore(data []byte) error
	// Buffer resolves a named communication buffer.
	Buffer(id string) []byte
}

// StreamSnapshotter is how an App serializes itself: SnapshotTo writes the
// rank's whole state to w, in as many Writes as suits the app, and the same
// state always as the same bytes (job digests are compared bitwise). The
// runtime calls it only while the rank is parked or finished. The capture
// keeps the slices it is handed until SnapshotTo returns and copies them
// once, and the job digest keeps them until it has hashed them, so they must
// stay as they are until then, and w may be given the app's live state: no
// copy of the state is built on the way. A capture that ends the job
// (ExitAfterCapture) copies nothing from a snapshot made in one Write; it
// keeps that slice as the rank's image, because the rank never runs again,
// so the app must not change it afterwards.
type StreamSnapshotter interface {
	SnapshotTo(w io.Writer) error
}
