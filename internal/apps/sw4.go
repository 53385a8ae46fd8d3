package apps

import (
	"io"
	"math"

	"mana/internal/mpi"
	"mana/internal/rt"
)

// SW4Mini is the proxy for SW4, the fourth-order seismic wave solver
// (Sjögreen & Petersson) of Table 1 / Figure 7 — the workload with the
// lowest collective-call rate (0.6/s against 158 p2p calls/s). Each rank
// owns a line of the 1-D elastic wave equation u_tt = c² u_xx discretized
// with the classic 4th-order 5-point stencil; the width-2 halos are
// exchanged every step and a stability check (global max |u|) reduces every
// StabilityEvery steps.
type SW4Mini struct {
	cfg SW4Config

	Iter  int
	Phase int

	U, Uprev []float64
	MaxU     float64

	bufs rt.Buffers
}

// SW4Config parametrizes the proxy.
type SW4Config struct {
	N              int // local grid points
	Steps          int
	StabilityEvery int
	ComputeVT      float64 // virtual compute per step (seconds)
	C, Dt          float64 // wave speed and time step (dx = 1)
}

// DefaultSW4Config reproduces Table 1's SW4 row (~39.5 steps/s, one
// collective every 66 steps) over Figure 7's ~123 s runtime.
func DefaultSW4Config() SW4Config {
	return SW4Config{
		N: 256, Steps: 4850, StabilityEvery: 66,
		ComputeVT: 25e-3, C: 1.0, Dt: 0.4,
	}
}

// NewSW4Mini creates the proxy for one rank.
func NewSW4Mini(cfg SW4Config) *SW4Mini {
	if cfg.N < 8 {
		cfg.N = 8
	}
	if cfg.StabilityEvery <= 0 {
		cfg.StabilityEvery = 66
	}
	if cfg.C == 0 {
		cfg.C = 1
	}
	if cfg.Dt == 0 {
		cfg.Dt = 0.4
	}
	return &SW4Mini{cfg: cfg}
}

// Name implements rt.App.
func (s *SW4Mini) Name() string { return "sw4" }

// Setup implements rt.App.
func (s *SW4Mini) Setup(env *rt.Env) error {
	n := s.cfg.N
	s.U = make([]float64, n)
	s.Uprev = make([]float64, n)
	// A smooth global standing-wave initial condition (LOH.1 analog: a
	// localized source), continuous across rank boundaries.
	total := float64(n * env.Size())
	for i := 0; i < n; i++ {
		g := float64(env.Rank()*n + i)
		s.U[i] = math.Sin(2 * math.Pi * g / total)
		s.Uprev[i] = s.U[i]
	}
	s.bufs.Add("haloL", 16) // two ghost points each side (4th order)
	s.bufs.Add("haloR", 16)
	s.bufs.Add("maxu", 8)
	return nil
}

// Buffer implements rt.App.
func (s *SW4Mini) Buffer(id string) []byte { return s.bufs.Get(id) }

// stencil advances the wave equation one leapfrog step using the 4th-order
// second-derivative stencil (-1/12, 4/3, -5/2, 4/3, -1/12).
func (s *SW4Mini) stencil() {
	n := len(s.U)
	hL := mpi.BytesF64(s.bufs.Get("haloL")) // [u(-2), u(-1)]
	hR := mpi.BytesF64(s.bufs.Get("haloR")) // [u(n), u(n+1)]
	at := func(i int) float64 {
		switch {
		case i == -2:
			return hL[0]
		case i == -1:
			return hL[1]
		case i == n:
			return hR[0]
		case i == n+1:
			return hR[1]
		default:
			return s.U[i]
		}
	}
	lam := s.cfg.C * s.cfg.C * s.cfg.Dt * s.cfg.Dt
	next := make([]float64, n)
	maxU := 0.0
	for i := 0; i < n; i++ {
		uxx := (-at(i-2) + 16*at(i-1) - 30*at(i) + 16*at(i+1) - at(i+2)) / 12
		next[i] = 2*s.U[i] - s.Uprev[i] + lam*uxx
		if a := math.Abs(next[i]); a > maxU {
			maxU = a
		}
	}
	s.Uprev, s.U = s.U, next
	s.MaxU = maxU
}

// Step implements rt.App.
func (s *SW4Mini) Step(env *rt.Env) (bool, error) {
	switch s.Phase {
	case 0: // stencil update, halo exchange
		s.stencil()
		env.Compute(s.cfg.ComputeVT)
		n := env.Size()
		left := (env.Rank() - 1 + n) % n
		right := (env.Rank() + 1) % n
		env.Irecv(rt.WorldVID, left, 31, "haloL", 0, 16)
		env.Irecv(rt.WorldVID, right, 32, "haloR", 0, 16)
		k := len(s.U)
		env.Send(rt.WorldVID, left, 32, mpi.F64Bytes([]float64{s.U[0], s.U[1]}))
		env.Send(rt.WorldVID, right, 31, mpi.F64Bytes([]float64{s.U[k-2], s.U[k-1]}))
		s.Phase = 1
		env.WaitAll()
	case 1: // periodic stability reduction
		if (s.Iter+1)%s.cfg.StabilityEvery == 0 {
			putF64(s.bufs.Get("maxu"), s.MaxU)
			s.Phase = 2
			env.Allreduce(rt.WorldVID, mpi.OpMax, "maxu")
		} else {
			s.Iter++
			s.Phase = 0
		}
	case 2:
		s.MaxU = getF64(s.bufs.Get("maxu"))
		s.Iter++
		s.Phase = 0
	}
	return s.Iter < s.cfg.Steps, nil
}

// SnapshotTo implements rt.App: the header words Iter, Phase and MaxU, then
// U and Uprev, then the buffers (rt.Buffers).
func (s *SW4Mini) SnapshotTo(w io.Writer) error {
	return s.bufs.SnapshotTo(w, []uint64{uint64(s.Iter), uint64(s.Phase), math.Float64bits(s.MaxU)},
		s.U, s.Uprev)
}

// Restore implements rt.App.
func (s *SW4Mini) Restore(data []byte) error {
	var h [3]uint64
	if err := s.bufs.Restore("sw4", data, h[:], 3, s.cfg.Steps, s.U, s.Uprev); err != nil {
		return err
	}
	s.Iter, s.Phase, s.MaxU = int(h[0]), int(h[1]), math.Float64frombits(h[2])
	return nil
}
