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
//     away; build it on first use instead (the first Step, Snapshot or
//     SnapshotTo). The split-process model restores the upper half's memory
//     the same way, without re-running its initialisation.
//   - All mutable state lives in the App value and is captured by Snapshot.
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
type App interface {
	// Name identifies the application (used in reports).
	Name() string
	// Setup creates communicators and buffers. It runs both on fresh starts
	// and on restarts (before Restore).
	Setup(env *Env) error
	// Step advances the application by one unit of work, returning false
	// when the program is complete.
	Step(env *Env) (more bool, err error)
	// Snapshot serializes all mutable state (the upper-half image). The
	// returned bytes must not alias live state: the captured image is
	// IMMUTABLE from the moment Snapshot returns — later Steps must leave
	// every byte of it as it was. The checkpoint pipeline hashes the image
	// once and writes it to the store later (behind the resumed job, when
	// the capture is asynchronous) without hashing it again, so an app that
	// hands out a view of a buffer it keeps mutating would seal shards
	// whose bytes do not match their recorded identity.
	Snapshot() ([]byte, error)
	// Restore rebuilds state from a Snapshot. Like io.Writer's Write, it
	// must not retain data after it returns: the runtime owns those bytes,
	// and a restarted rank's first capture overwrites them (see Restart).
	Restore(data []byte) error
	// Buffer resolves a named communication buffer.
	Buffer(id string) []byte
}

// StreamSnapshotter is an optional App extension: an app that can serialize
// its state directly into a writer. When implemented, the runtime's capture
// path prefers it over Snapshot — the image buffer is filled in one pass
// instead of build-then-copy. SnapshotTo MUST produce exactly the bytes
// Snapshot would return: shard identity (and page-delta diffing against the
// previous epoch) hashes the serialized stream, and the runtime's final
// job digest still uses Snapshot. Snapshot's immutability rule comes for
// free here: an io.Writer never retains the slice it is handed, so the
// capture buffer holds its own copy of every byte written (refilling one
// scratch block between Writes is fine).
type StreamSnapshotter interface {
	SnapshotTo(w io.Writer) error
}
