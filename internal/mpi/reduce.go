package mpi

import (
	"encoding/binary"
	"math"
)

// Op identifies a reduction operation over little-endian float64 vectors,
// mirroring MPI_Op. (The paper's workloads reduce doubles; integer payloads
// can be carried through Sum on exactly-representable values.)
type Op int

// Supported reduction operations.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

// String returns the MPI-style name.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "SUM"
	case OpMax:
		return "MAX"
	case OpMin:
		return "MIN"
	case OpProd:
		return "PROD"
	case OpMaxLoc:
		return "MAXLOC"
	case OpMinLoc:
		return "MINLOC"
	}
	return "UNKNOWN"
}

// applyOp folds src into dst elementwise (dst = dst ⊕ src) treating both as
// little-endian float64 vectors (or (value, index) pairs for the *Loc ops).
// Lengths must match.
func applyOp(op Op, dst, src []byte) {
	if op == OpMaxLoc || op == OpMinLoc {
		applyPairOp(op, dst, src)
		return
	}
	n := len(dst) / 8
	for i := 0; i < n; i++ {
		d := math.Float64frombits(binary.LittleEndian.Uint64(dst[i*8:]))
		s := math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
		var r float64
		switch op {
		case OpSum:
			r = d + s
		case OpMax:
			if d > s {
				r = d
			} else {
				r = s
			}
		case OpMin:
			if d < s {
				r = d
			} else {
				r = s
			}
		case OpProd:
			r = d * s
		}
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(r))
	}
}

// F64Bytes encodes a float64 vector as the little-endian payload the
// collectives expect.
func F64Bytes(xs []float64) []byte {
	out := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// BytesF64 decodes a little-endian float64 payload.
func BytesF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// Pair ops (MPI_MINLOC/MPI_MAXLOC): payloads are sequences of (value,
// index) float64 pairs; the reduction keeps the extremal value and the
// lowest index among ties, exactly like MPI's MINLOC/MAXLOC semantics.
const (
	OpMaxLoc Op = iota + 100
	OpMinLoc
)

// applyPairOp folds src into dst for MINLOC/MAXLOC payloads.
func applyPairOp(op Op, dst, src []byte) {
	n := len(dst) / 16
	for i := 0; i < n; i++ {
		dv := math.Float64frombits(binary.LittleEndian.Uint64(dst[i*16:]))
		di := math.Float64frombits(binary.LittleEndian.Uint64(dst[i*16+8:]))
		sv := math.Float64frombits(binary.LittleEndian.Uint64(src[i*16:]))
		si := math.Float64frombits(binary.LittleEndian.Uint64(src[i*16+8:]))
		take := false
		switch op {
		case OpMaxLoc:
			take = sv > dv || (sv == dv && si < di)
		case OpMinLoc:
			take = sv < dv || (sv == dv && si < di)
		}
		if take {
			binary.LittleEndian.PutUint64(dst[i*16:], math.Float64bits(sv))
			binary.LittleEndian.PutUint64(dst[i*16+8:], math.Float64bits(si))
		}
	}
}
