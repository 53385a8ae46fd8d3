package apps

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"

	"mana/internal/mpi"
	"mana/internal/rt"
)

// VASPMini is the proxy for VASP 6 (paper §5.4): an iterated
// FFT-transpose-FFT cycle, the communication skeleton of plane-wave DFT.
// Each iteration performs two Alltoall "transposes" on a row
// sub-communicator, a ring point-to-point exchange, and a world Allreduce
// of the energy — landing at the paper's extreme collective-call rate
// (~2,500 collective and ~2,600 point-to-point calls per second per process
// at 512 ranks, Table 1).
type VASPMini struct {
	cfg VASPConfig

	Iter  int
	Phase int

	Slab   []complex128 // local FFT slab (real numerics); nil until initSlab or Restore
	Energy float64
	bufs   rt.Buffers
	row    int // row sub-communicator vid
	rng    splitmix64

	fwd, inv *fftPlan // twiddle tables for the slab's length; rebuilt by Setup
}

// VASPConfig parametrizes the proxy.
type VASPConfig struct {
	Iterations int
	SlabN      int     // local FFT length (power of two)
	RowSize    int     // ranks per FFT-transpose row communicator
	BlockBytes int     // Alltoall per-destination block size
	ComputeVT  float64 // virtual compute per iteration (seconds)
}

// DefaultVASPConfig returns the calibration that reproduces Table 1's VASP
// row at 512 ranks: ~830 iterations/second with 3 collective and 4
// point-to-point calls per iteration.
func DefaultVASPConfig() VASPConfig {
	return VASPConfig{
		Iterations: 94000, // ~113 s of virtual time, the paper's PdO4 runtime
		SlabN:      64,
		RowSize:    32,
		BlockBytes: 8,
		ComputeVT:  1.15e-3,
	}
}

// NewVASPMini creates the proxy for one rank.
func NewVASPMini(cfg VASPConfig) *VASPMini {
	if cfg.SlabN == 0 {
		cfg.SlabN = 64
	}
	if cfg.RowSize == 0 {
		cfg.RowSize = 32
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 8
	}
	return &VASPMini{cfg: cfg}
}

// Name implements rt.App.
func (v *VASPMini) Name() string { return "vasp" }

// Setup implements rt.App. It seeds the slab's generator and draws no slab
// (see initSlab).
func (v *VASPMini) Setup(env *rt.Env) error {
	rows := v.cfg.RowSize
	if rows > env.Size() {
		rows = env.Size()
	}
	v.row = env.Split(rt.WorldVID, env.Rank()/rows, env.Rank()%rows)
	v.bufs.Add("ata", v.cfg.BlockBytes*env.CommSize(v.row))
	v.bufs.Add("energy", 8)
	v.bufs.Add("haloL", 8)
	v.bufs.Add("haloR", 8)

	v.fwd, v.inv = newFFTPlan(v.cfg.SlabN, false), newFFTPlan(v.cfg.SlabN, true)
	v.rng = splitmix64{S: uint64(env.Rank())*2654435761 + 1}
	return nil
}

// initSlab draws the initial slab if there is none yet. Step and
// SnapshotTo call it; Restore does not, because the snapshot carries the
// slab and the generator state the draws would have left.
func (v *VASPMini) initSlab() {
	if v.Slab != nil {
		return
	}
	v.Slab = make([]complex128, v.cfg.SlabN)
	for i := range v.Slab {
		v.Slab[i] = complex(v.rng.float()-0.5, v.rng.float()-0.5)
	}
}

// Buffer implements rt.App.
func (v *VASPMini) Buffer(id string) []byte { return v.bufs.Get(id) }

// Step implements rt.App. Five steps per iteration; the phase counter
// advances before every blocking batch per the rt.App contract.
func (v *VASPMini) Step(env *rt.Env) (bool, error) {
	v.initSlab()
	c := v.cfg.ComputeVT
	switch v.Phase {
	case 0: // forward FFT, then first transpose
		v.fwd.transform(v.Slab)
		v.fillAta()
		env.Compute(0.35 * c)
		v.Phase = 1
		env.Alltoall(v.row, "ata")
	case 1: // fold transposed data back, inverse FFT, second transpose
		v.foldAta()
		v.inv.transform(v.Slab)
		env.Compute(0.35 * c)
		v.Phase = 2
		env.Alltoall(v.row, "ata")
	case 2: // ring point-to-point exchange (wavefunction slices)
		n := env.Size()
		left := (env.Rank() - 1 + n) % n
		right := (env.Rank() + 1) % n
		env.Irecv(rt.WorldVID, left, 11, "haloL", 0, 8)
		env.Irecv(rt.WorldVID, right, 12, "haloR", 0, 8)
		var payload [8]byte
		putF64(payload[:], real(v.Slab[0]))
		env.Send(rt.WorldVID, left, 12, payload[:])
		env.Send(rt.WorldVID, right, 11, payload[:])
		env.Compute(0.15 * c)
		v.Phase = 3
		env.WaitAll()
	case 3: // energy reduction
		e := 0.0
		for _, z := range v.Slab {
			e += real(z)*real(z) + imag(z)*imag(z)
		}
		putF64(v.bufs.Get("energy"), e)
		env.Compute(0.15 * c)
		v.Phase = 4
		env.Allreduce(rt.WorldVID, mpi.OpSum, "energy")
	case 4: // consume energy, next iteration
		v.Energy = getF64(v.bufs.Get("energy"))
		if math.IsNaN(v.Energy) || math.IsInf(v.Energy, 0) {
			v.Energy = 0
		}
		v.Iter++
		v.Phase = 0
	default:
		return false, fmt.Errorf("vasp: phase %d outside [0, 4]", v.Phase)
	}
	return v.Iter < v.cfg.Iterations, nil
}

// fillAta packs slab samples into the Alltoall buffer.
func (v *VASPMini) fillAta() {
	b := v.bufs.Get("ata")
	for i := 0; i+8 <= len(b); i += 8 {
		putF64(b[i:], real(v.Slab[(i/8)%len(v.Slab)]))
	}
}

// foldAta mixes the transposed contributions back into the slab, keeping
// magnitudes bounded. The modulus is taken only when a part exceeds 5e5:
// with both parts at most that, |z| ≤ 7.1e5 < 1e6. A NaN part fails both
// comparisons, as its NaN modulus fails the 1e6 one.
func (v *VASPMini) foldAta() {
	b := v.bufs.Get("ata")
	for i := 0; i < len(v.Slab) && 8*i+8 <= len(b); i++ {
		z := v.Slab[i] + complex(getF64(b[8*i:])*1e-3, 0)
		if (math.Abs(real(z)) > 5e5 || math.Abs(imag(z)) > 5e5) && cmplx.Abs(z) > 1e6 {
			z /= 1e6
		}
		v.Slab[i] = z
	}
}

// Snapshot layout: fixed-width little-endian, as the straggler's, not gob —
// a restart then decodes at copy speed instead of compiling a gob decoder
// per rank. Six uint64 header words (Iter, Phase, Energy bits, Rng, SlabN,
// buffer count), then the slab as 2·SlabN float64 bits — every real part,
// then every imaginary part — then the buffer section (rt.Buffers).
//
// The real parts run together because a rank parked at the first transpose
// holds its leading ones verbatim in "ata" (fillAta): contiguous, deflate
// stores that copy as one back-reference instead of one per element, and
// vasp_coll's legs write about 6 % fewer bytes than with (re, im) pairs.
const vaspHeaderLen = 6 * 8

// SnapshotTo implements rt.App: the layout's header words, then the slab's
// real and imaginary parts as two arrays, then the buffers (rt.Buffers) —
// one Write of about 1.4 KB a rank.
func (v *VASPMini) SnapshotTo(w io.Writer) error {
	v.initSlab()
	parts := make([]float64, 2*len(v.Slab))
	re, im := parts[:len(v.Slab)], parts[len(v.Slab):]
	for i, z := range v.Slab {
		re[i], im[i] = real(z), imag(z)
	}
	return v.bufs.SnapshotTo(w, []uint64{uint64(v.Iter), uint64(v.Phase), math.Float64bits(v.Energy), v.rng.S,
		uint64(len(v.Slab)), uint64(v.bufs.Len())}, re, im)
}

// Restore implements rt.App. Every count is checked against the bytes
// present before it is multiplied or allocated, and the whole snapshot
// before any state is written, so a refused snapshot leaves the rank as it
// was. A snapshot that does not fit this rank — a slab of another length, a
// phase Step has no case for, an iteration outside the run, other buffers
// than Setup registered, a byte past the last buffer — is refused. The slab
// is the only allocation.
func (v *VASPMini) Restore(data []byte) error {
	if len(data) < vaspHeaderLen {
		return fmt.Errorf("vasp: snapshot truncated (%d bytes)", len(data))
	}
	iter, phase, nSlab, nBufs := int64(word(data, 0)), int64(word(data, 1)), word(data, 4), word(data, 5)
	rest := data[vaspHeaderLen:]
	switch {
	case nSlab > uint64(len(rest))/16:
		return fmt.Errorf("vasp: snapshot claims %d slab elements, has %d bytes after the header", nSlab, len(rest))
	case nSlab != uint64(v.cfg.SlabN):
		return fmt.Errorf("vasp: snapshot slab has %d elements, this rank %d", nSlab, v.cfg.SlabN)
	case phase < 0 || phase > 4:
		return fmt.Errorf("vasp: snapshot phase %d outside [0, 4]", phase)
	case iter < 0 || iter > int64(v.cfg.Iterations):
		return fmt.Errorf("vasp: snapshot iteration %d outside [0, %d]", iter, v.cfg.Iterations)
	case nBufs != uint64(v.bufs.Len()):
		return fmt.Errorf("vasp: snapshot has %d buffers, this rank %d", nBufs, v.bufs.Len())
	}
	slab, bufs := rest[:16*nSlab], rest[16*nSlab:]
	if err := v.bufs.CheckSection("vasp", bufs); err != nil {
		return err
	}

	v.Iter, v.Phase, v.Energy, v.rng.S = int(iter), int(phase), math.Float64frombits(word(data, 2)), word(data, 3)
	v.Slab = make([]complex128, nSlab)
	re, im := slab[:8*nSlab], slab[8*nSlab:]
	for i := range v.Slab {
		v.Slab[i] = complex(getF64(re), getF64(im))
		re, im = re[8:], im[8:]
	}
	v.bufs.RestoreSection(bufs)
	return nil
}
