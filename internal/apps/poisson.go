package apps

import (
	"fmt"
	"io"
	"math"

	"mana/internal/mpi"
	"mana/internal/rt"
)

// Poisson is the paper's Poisson-solver workload (§5.3, Table 1): a
// conjugate-gradient iteration whose only communication is *non-blocking*
// collectives (two Iallreduce dot products per iteration, after Hoefler et
// al.'s NBC-optimized CG). 2PC cannot run it — one of the CC algorithm's
// points of novelty is that it can (paper §1.1, Figure 7 "NA").
//
// Every rank solves an identical tridiagonal Laplacian block, so global dot
// products are exactly Size() times the local ones and the iteration
// follows the textbook CG trajectory — which makes convergence testable.
type Poisson struct {
	cfg PoissonConfig

	Iter  int
	Phase int

	X, R, P, Q []float64
	Rho        float64 // global r·r
	Residual   float64
	Converged  bool

	bufs rt.Buffers
}

// PoissonConfig parametrizes the solver.
type PoissonConfig struct {
	N         int // local unknowns
	MaxIters  int
	Tol       float64 // stop when sqrt(global r.r) < Tol (rel_error analog)
	ComputeVT float64 // virtual compute per iteration (seconds)
}

// DefaultPoissonConfig reproduces Table 1's Poisson row: ~21 collective
// calls per second (two per iteration at ~10.6 iterations/second) for ~40
// seconds of virtual runtime.
func DefaultPoissonConfig() PoissonConfig {
	return PoissonConfig{N: 2048, MaxIters: 420, Tol: 1e-8, ComputeVT: 92e-3}
}

// NewPoisson creates the solver for one rank.
func NewPoisson(cfg PoissonConfig) *Poisson {
	if cfg.N == 0 {
		cfg.N = 2048
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = 420
	}
	return &Poisson{cfg: cfg}
}

// Name implements rt.App.
func (p *Poisson) Name() string { return "poisson" }

// Setup implements rt.App.
func (p *Poisson) Setup(env *rt.Env) error {
	n := p.cfg.N
	p.X = make([]float64, n)
	p.R = make([]float64, n)
	p.P = make([]float64, n)
	p.Q = make([]float64, n)
	// b = 1 everywhere; x0 = 0, so r0 = b, p0 = r0.
	for i := range p.R {
		p.R[i] = 1
		p.P[i] = 1
	}
	p.bufs.Add("dot", 8)
	p.bufs.Add("dotout", 8)
	p.bufs.Add("rho", 8)
	p.bufs.Add("rhoout", 8)
	return nil
}

// Buffer implements rt.App.
func (p *Poisson) Buffer(id string) []byte { return p.bufs.Get(id) }

// applyA computes q = A p for the 1-D Laplacian block (Dirichlet ends).
func (p *Poisson) applyA() {
	n := len(p.P)
	for i := 0; i < n; i++ {
		v := 2 * p.P[i]
		if i > 0 {
			v -= p.P[i-1]
		}
		if i < n-1 {
			v -= p.P[i+1]
		}
		p.Q[i] = v
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Step implements rt.App: the CG iteration split across non-blocking
// reduction phases (program counter advanced before each blocking wait).
func (p *Poisson) Step(env *rt.Env) (bool, error) {
	c := p.cfg.ComputeVT
	switch p.Phase {
	case 0: // bootstrap: global rho0 = r.r
		putF64(p.bufs.Get("rho"), dot(p.R, p.R))
		env.Iallreduce(rt.WorldVID, mpi.OpSum, "rho", "rhoout")
		p.Phase = 1
	case 1:
		p.Phase = 2
		env.WaitAll()
	case 2:
		p.Rho = getF64(p.bufs.Get("rhoout"))
		p.Phase = 3
	case 3: // q = A p; start global p.q
		p.applyA()
		putF64(p.bufs.Get("dot"), dot(p.P, p.Q))
		env.Iallreduce(rt.WorldVID, mpi.OpSum, "dot", "dotout")
		env.Compute(0.6 * c) // overlapped matvec tail
		p.Phase = 4
	case 4:
		p.Phase = 5
		env.WaitAll()
	case 5: // alpha update; start global new rho
		pq := getF64(p.bufs.Get("dotout"))
		if pq == 0 {
			p.Converged = true
			return false, nil
		}
		alpha := p.Rho / pq
		for i := range p.X {
			p.X[i] += alpha * p.P[i]
			p.R[i] -= alpha * p.Q[i]
		}
		putF64(p.bufs.Get("rho"), dot(p.R, p.R))
		env.Iallreduce(rt.WorldVID, mpi.OpSum, "rho", "rhoout")
		env.Compute(0.4 * c)
		p.Phase = 6
	case 6:
		p.Phase = 7
		env.WaitAll()
	case 7: // beta update, convergence check
		rhoNew := getF64(p.bufs.Get("rhoout"))
		beta := rhoNew / p.Rho
		p.Rho = rhoNew
		p.Residual = math.Sqrt(rhoNew)
		for i := range p.P {
			p.P[i] = p.R[i] + beta*p.P[i]
		}
		p.Iter++
		if p.Residual < p.cfg.Tol || p.Iter >= p.cfg.MaxIters {
			p.Converged = p.Residual < p.cfg.Tol
			return false, nil
		}
		p.Phase = 3
	}
	return true, nil
}

// SnapshotTo implements rt.App: the header words Iter, Phase, Rho, Residual
// and Converged, then X, R, P and Q, then the buffers (rt.Buffers).
func (p *Poisson) SnapshotTo(w io.Writer) error {
	return p.bufs.SnapshotTo(w, []uint64{uint64(p.Iter), uint64(p.Phase),
		math.Float64bits(p.Rho), math.Float64bits(p.Residual), boolWord(p.Converged)},
		p.X, p.R, p.P, p.Q)
}

// Restore implements rt.App. The Converged word is checked before
// rt.Buffers.Restore writes anything.
func (p *Poisson) Restore(data []byte) error {
	if len(data) >= 40 && word(data, 4) > 1 {
		return fmt.Errorf("poisson: snapshot Converged word %d is neither 0 nor 1", word(data, 4))
	}
	var h [5]uint64
	if err := p.bufs.Restore("poisson", data, h[:], 8, p.cfg.MaxIters, p.X, p.R, p.P, p.Q); err != nil {
		return err
	}
	p.Iter, p.Phase, p.Converged = int(h[0]), int(h[1]), h[4] == 1
	p.Rho, p.Residual = math.Float64frombits(h[2]), math.Float64frombits(h[3])
	return nil
}
