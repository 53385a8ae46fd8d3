// Package apps provides the workloads of the paper's evaluation (§5) as
// proxy applications over the runtime:
//
//   - OSU: micro-benchmarks for blocking/non-blocking collectives and for
//     communication/computation overlap (Figures 5 and 6, Table 1 row 1);
//   - VASPMini: an FFT-transpose proxy for VASP 6 — very high collective
//     call rate on sub-communicators plus point-to-point traffic;
//   - Poisson: a conjugate-gradient solver using only non-blocking
//     collectives (after Hoefler et al., the paper's Poisson solver);
//   - CoMDMini, LJMini, SW4Mini: halo-exchange dominated proxies for CoMD,
//     LAMMPS (scaled LJ liquid), and SW4 with their Table-1 communication
//     rates.
//
// The proxies perform genuine (small) numerics — FFTs, CG iterations,
// Lennard-Jones forces, 4th-order stencils — so correctness is testable,
// while virtual compute charges scale them to the paper's per-iteration
// cost. Each app follows the rt.App checkpointing contract.
package apps

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
)

// putF64 and getF64 write and read one little-endian float64 — the element
// encoding of the collectives' payloads — in place, where mpi.F64Bytes and
// mpi.BytesF64 would allocate a slice per value on the step path.
func putF64(b []byte, x float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(x)) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// bufset is a named-buffer registry shared by the proxy apps.
type bufset struct {
	M map[string][]byte
}

func newBufset() bufset { return bufset{M: make(map[string][]byte)} }

// add allocates (or reuses) a named buffer of n bytes.
func (b *bufset) add(id string, n int) []byte {
	if cur, ok := b.M[id]; ok && len(cur) == n {
		return cur
	}
	buf := make([]byte, n)
	b.M[id] = buf
	return buf
}

func (b *bufset) get(id string) []byte { return b.M[id] }

// BufEntry is one named buffer in a snapshot. Snapshots serialize buffers in
// ID order (the gob apps as a sorted slice, VASP's fixed-width layout record
// by record), never in a map's: gob encodes maps in random iteration order,
// and snapshot bytes must be canonical — the conformance engine compares
// state digests bitwise, and encode→decode→re-encode must be the identity.
type BufEntry struct {
	ID   string
	Data []byte
}

// entries returns the buffer set in canonical (ID-sorted) order.
func (b *bufset) entries() []BufEntry {
	out := make([]BufEntry, 0, len(b.M))
	for id, data := range b.M {
		out = append(out, BufEntry{ID: id, Data: data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// restoreEntries copies saved buffer contents into the (already allocated,
// same shape) registry. saved must be exactly the registry's buffers in
// strictly increasing ID order, each of its registered size: anything else
// means Setup and the snapshot disagree, and the restart configuration is
// wrong. Nothing is copied unless every entry fits.
func (b *bufset) restoreEntries(saved []BufEntry) error {
	if len(saved) != len(b.M) {
		return fmt.Errorf("apps: snapshot has %d buffers, this rank %d", len(saved), len(b.M))
	}
	// As many entries as the registry holds, with strictly increasing known
	// IDs, are exactly its set.
	for i, e := range saved {
		dst, ok := b.M[e.ID]
		switch {
		case i > 0 && e.ID <= saved[i-1].ID:
			return fmt.Errorf("apps: snapshot buffer %q after %q (IDs must strictly increase)", e.ID, saved[i-1].ID)
		case !ok:
			return fmt.Errorf("apps: snapshot has unknown buffer %q", e.ID)
		case len(dst) != len(e.Data):
			return fmt.Errorf("apps: buffer %q size mismatch: %d vs %d", e.ID, len(dst), len(e.Data))
		}
	}
	for _, e := range saved {
		copy(b.M[e.ID], e.Data)
	}
	return nil
}

// gobEncodeTo/gobDecode are the snapshot helpers shared by the apps.
// gobEncodeTo streams the encoding straight into w — the apps implement
// rt.StreamSnapshotter on top of it so the capture path never materializes
// a second whole-snapshot buffer — and each Snapshot delegates through a
// bytes.Buffer for callers that want the bytes.
func gobEncodeTo(w io.Writer, v any) error {
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("apps: snapshot: %w", err)
	}
	return nil
}

func gobDecode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("apps: restore: %w", err)
	}
	return nil
}

// splitmix64 is a tiny serializable PRNG for deterministic workloads
// (math/rand's state is not portable across snapshots).
type splitmix64 struct {
	S uint64
}

func (r *splitmix64) next() uint64 {
	r.S += 0x9e3779b97f4a7c15
	z := r.S
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *splitmix64) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
