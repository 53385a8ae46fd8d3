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
	"encoding/binary"
	"math"
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
