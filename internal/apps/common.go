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
	"fmt"
	"math"
	"slices"
)

// putF64 and getF64 write and read one little-endian float64 — the element
// encoding of the collectives' payloads — in place, where mpi.F64Bytes and
// mpi.BytesF64 would allocate a slice per value on the step path.
func putF64(b []byte, x float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(x)) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// word reads the i-th little-endian uint64 of b.
func word(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }

// boolWord is a bool's header word: 1 or 0.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

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

// The buffer section of every app snapshot but the straggler's: each named
// buffer in ID order as its ID length word, the ID, its data length word and
// the data, all words little-endian uint64. ID order, never a map's, keeps
// the bytes canonical — the conformance engine compares state digests
// bitwise, and encode→decode→re-encode must be the identity.

// snapshotLen is the byte length of the buffer section.
func (b *bufset) snapshotLen() int {
	n := 0
	for id, data := range b.M {
		n += 16 + len(id) + len(data)
	}
	return n
}

// appendTo appends the buffer section to dst. The IDs are sorted in a
// small array on the stack: a registry holds a handful of buffers.
func (b *bufset) appendTo(dst []byte) []byte {
	ids := make([]string, 0, 8)
	for id := range b.M {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(id)))
		dst = append(dst, id...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b.M[id])))
		dst = append(dst, b.M[id]...)
	}
	return dst
}

// lengthPrefixed splits a length word and the bytes it counts off the front
// of b; ok is false when either runs past the end of b.
func lengthPrefixed(b []byte) (field, rest []byte, ok bool) {
	if len(b) < 8 || binary.LittleEndian.Uint64(b) > uint64(len(b)-8) {
		return nil, nil, false
	}
	n := 8 + binary.LittleEndian.Uint64(b)
	return b[8:n], b[n:], true
}

// check reports, under the app's name, whether sec is a buffer section
// holding exactly the registered buffers, in strictly increasing ID order,
// each of its registered size, and nothing after them. It writes nothing.
func (b *bufset) check(app string, sec []byte) error {
	// As many buffers as the registry holds, with strictly increasing known
	// IDs, are exactly its set. The lookup by string(id) does not allocate.
	prev := []byte(nil)
	for i := 0; i < len(b.M); i++ {
		id, next, okID := lengthPrefixed(sec)
		d, next, okData := lengthPrefixed(next)
		if !okID || !okData {
			return fmt.Errorf("%s: snapshot buffer %d runs past the end", app, i)
		}
		dst, known := b.M[string(id)]
		switch {
		case i > 0 && bytes.Compare(prev, id) >= 0:
			return fmt.Errorf("%s: snapshot buffer %.32q after %.32q (IDs must strictly increase)", app, id, prev)
		case !known:
			return fmt.Errorf("%s: snapshot has unknown buffer %.32q", app, id)
		case len(d) != len(dst):
			return fmt.Errorf("%s: buffer %q size mismatch: %d vs %d", app, id, len(dst), len(d))
		}
		prev, sec = id, next
	}
	if len(sec) != 0 {
		return fmt.Errorf("%s: snapshot has %d bytes past its last buffer", app, len(sec))
	}
	return nil
}

// copyFrom copies a checked buffer section into the registry.
func (b *bufset) copyFrom(sec []byte) {
	for len(sec) > 0 {
		id, next, _ := lengthPrefixed(sec)
		d, next, _ := lengthPrefixed(next)
		copy(b.M[string(id)], d)
		sec = next
	}
}

// The snapshot layout of the apps that hold a buffer set and float64 arrays
// (OSU, OSU p2p, Poisson, MD, SW4): fixed-width little-endian, as VASP's.
// The header words are Iter, Phase, then the app's scalars — float64 bits,
// a bool as 0 or 1 — then each array's elements at its Setup length, then
// the buffer section. Every length is the rank's own, so only the buffer
// section carries any.

// snapshotState lays a rank out in one allocation of the exact size.
func (b *bufset) snapshotState(words []uint64, arrays ...[]float64) []byte {
	n := 8*len(words) + b.snapshotLen()
	for _, a := range arrays {
		n += 8 * len(a)
	}
	dst := make([]byte, 0, n)
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	for _, a := range arrays {
		for _, x := range a {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return b.appendTo(dst)
}

// checkState reports, under the app's name, whether data is this rank's
// layout with nWords header words: the length its arrays and buffers fix, a
// phase among Step's cases [0, phases), an iteration in [0, iters], and
// exactly the registered buffers. It writes nothing.
func (b *bufset) checkState(app string, data []byte, nWords, phases, iters int, arrays ...[]float64) error {
	fixed := 8 * nWords
	for _, a := range arrays {
		fixed += 8 * len(a)
	}
	if want := fixed + b.snapshotLen(); len(data) != want {
		return fmt.Errorf("%s: snapshot is %d bytes, this rank's state %d", app, len(data), want)
	}
	switch iter, phase := int64(word(data, 0)), int64(word(data, 1)); {
	case phase < 0 || phase >= int64(phases):
		return fmt.Errorf("%s: snapshot phase %d outside [0, %d]", app, phase, phases-1)
	case iter < 0 || iter > int64(iters):
		return fmt.Errorf("%s: snapshot iteration %d outside [0, %d]", app, iter, iters)
	}
	return b.check(app, data[fixed:])
}

// restoreState copies a checked snapshot's arrays and buffers into the
// rank; the header words are the caller's to read.
func (b *bufset) restoreState(data []byte, nWords int, arrays ...[]float64) {
	data = data[8*nWords:]
	for _, a := range arrays {
		for i := range a {
			a[i] = getF64(data[8*i:])
		}
		data = data[8*len(a):]
	}
	b.copyFrom(data)
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
