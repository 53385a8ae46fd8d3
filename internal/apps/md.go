package apps

import (
	"io"
	"math"

	"mana/internal/mpi"
	"mana/internal/rt"
)

// MD is the shared halo-exchange molecular-dynamics proxy behind the CoMD
// and LAMMPS (scaled LJ liquid) workloads of Table 1 / Figure 7. Ranks form
// a periodic 1-D chain of domains, each owning a line of particles with
// Lennard-Jones interactions between neighbours; boundary positions are
// exchanged with the two neighbouring ranks every step, and a global energy
// Allreduce runs every EnergyEvery steps. The CoMD flavour adds a simple
// embedded-atom (EAM) density term, mirroring CoMD's Cu u6.eam input.
//
// Both applications are point-to-point dominated: 4 p2p calls per step
// against one collective every EnergyEvery steps, landing in Table 1's
// "low rate" band (CoMD 7.8 coll/s vs 414 p2p/s; LAMMPS 6.3 vs 1,707).
type MD struct {
	cfg MDConfig

	Iter  int
	Phase int

	Pos, Vel, Frc []float64
	Energy        float64

	bufs rt.Buffers
}

// MDConfig parametrizes the proxy.
type MDConfig struct {
	AppName     string
	Particles   int
	Steps       int
	EnergyEvery int
	ComputeVT   float64 // virtual compute per step (seconds)
	Dt          float64
	EAM         bool // CoMD flavour: embedded-atom density term
	// ExchangeForces additionally exchanges boundary force terms each step
	// (LAMMPS's reverse communication), doubling the p2p call count.
	ExchangeForces bool
}

// DefaultCoMDConfig reproduces Table 1's CoMD row: ~103 steps/second with 4
// p2p calls per step and an energy reduction every 13 steps.
func DefaultCoMDConfig() MDConfig {
	return MDConfig{
		AppName: "comd", Particles: 64, Steps: 3100,
		EnergyEvery: 13, ComputeVT: 9.6e-3, Dt: 1e-3, EAM: true,
	}
}

// DefaultLJConfig reproduces Table 1's LAMMPS row: ~213 steps/second with an
// energy reduction every 34 steps.
func DefaultLJConfig() MDConfig {
	return MDConfig{
		AppName: "lammps", Particles: 64, Steps: 4600,
		EnergyEvery: 34, ComputeVT: 4.7e-3, Dt: 1e-3, EAM: false,
		ExchangeForces: true,
	}
}

// NewMD creates the proxy for one rank.
func NewMD(cfg MDConfig) *MD {
	if cfg.Particles < 4 {
		cfg.Particles = 4
	}
	if cfg.EnergyEvery <= 0 {
		cfg.EnergyEvery = 10
	}
	if cfg.Dt == 0 {
		cfg.Dt = 1e-3
	}
	return &MD{cfg: cfg}
}

// Name implements rt.App.
func (m *MD) Name() string { return m.cfg.AppName }

// Setup implements rt.App.
func (m *MD) Setup(env *rt.Env) error {
	k := m.cfg.Particles
	m.Pos = make([]float64, k)
	m.Vel = make([]float64, k)
	m.Frc = make([]float64, k)
	rng := splitmix64{S: uint64(env.Rank())*977 + 13}
	for i := 0; i < k; i++ {
		// Lattice positions with small perturbations; spacing near the LJ
		// minimum (2^(1/6) sigma with sigma=1 scaled into spacing 1.1).
		m.Pos[i] = 1.1*float64(i) + 0.02*(rng.float()-0.5)
		m.Vel[i] = 0.05 * (rng.float() - 0.5)
	}
	m.bufs.Add("haloL", 8)
	m.bufs.Add("haloR", 8)
	m.bufs.Add("energy", 8)
	if m.cfg.ExchangeForces {
		m.bufs.Add("frcL", 8)
		m.bufs.Add("frcR", 8)
	}
	return nil
}

// Buffer implements rt.App.
func (m *MD) Buffer(id string) []byte { return m.bufs.Get(id) }

// ljForce returns the Lennard-Jones force magnitude and potential for a
// separation r (epsilon = sigma = 1, cut at 3).
func ljForce(r float64) (f, u float64) {
	if r <= 0 || r > 3 {
		return 0, 0
	}
	inv := 1 / r
	i6 := inv * inv * inv * inv * inv * inv
	i12 := i6 * i6
	return 24 * (2*i12 - i6) * inv, 4 * (i12 - i6)
}

// forces computes nearest-neighbour LJ forces (plus the EAM embedding term
// for the CoMD flavour), including interactions with halo particles, and
// returns the local potential energy.
func (m *MD) forces(haloL, haloR float64) float64 {
	k := len(m.Pos)
	for i := range m.Frc {
		m.Frc[i] = 0
	}
	pot := 0.0
	for i := 0; i+1 < k; i++ {
		r := m.Pos[i+1] - m.Pos[i]
		f, u := ljForce(r)
		m.Frc[i] -= f
		m.Frc[i+1] += f
		pot += u
	}
	// Halo interactions: the neighbour's edge particle, shifted into this
	// frame (domains are 1.1*K apart on the periodic chain).
	span := 1.1 * float64(k)
	rL := m.Pos[0] - (haloL - span)
	fL, uL := ljForce(rL)
	m.Frc[0] += fL
	pot += uL / 2
	rR := (haloR + span) - m.Pos[k-1]
	fR, uR := ljForce(rR)
	m.Frc[k-1] -= fR
	pot += uR / 2

	if m.cfg.EAM {
		// Embedded-atom flavour: density from neighbour distances, energy
		// -sqrt(rho), force contribution folded into the pair term.
		for i := 1; i+1 < k; i++ {
			rho := math.Exp(-(m.Pos[i] - m.Pos[i-1])) + math.Exp(-(m.Pos[i+1] - m.Pos[i]))
			pot -= math.Sqrt(rho)
		}
	}
	return pot
}

// integrate advances one velocity-Verlet step (forces precomputed).
func (m *MD) integrate() {
	dt := m.cfg.Dt
	for i := range m.Pos {
		m.Vel[i] += dt * m.Frc[i]
		m.Pos[i] += dt * m.Vel[i]
	}
}

// localEnergy returns kinetic + potential energy for the reduction.
func (m *MD) localEnergy(pot float64) float64 {
	ke := 0.0
	for _, v := range m.Vel {
		ke += 0.5 * v * v
	}
	return ke + pot
}

// Step implements rt.App.
func (m *MD) Step(env *rt.Env) (bool, error) {
	switch m.Phase {
	case 0: // force, integrate, halo exchange
		haloL := getF64(m.bufs.Get("haloL"))
		haloR := getF64(m.bufs.Get("haloR"))
		pot := m.forces(haloL, haloR)
		m.integrate()
		m.Energy = m.localEnergy(pot)
		env.Compute(m.cfg.ComputeVT)

		n := env.Size()
		left := (env.Rank() - 1 + n) % n
		right := (env.Rank() + 1) % n
		env.Irecv(rt.WorldVID, left, 21, "haloL", 0, 8)
		env.Irecv(rt.WorldVID, right, 22, "haloR", 0, 8)
		env.Send(rt.WorldVID, left, 22, mpi.F64Bytes([]float64{m.Pos[0]}))
		env.Send(rt.WorldVID, right, 21, mpi.F64Bytes([]float64{m.Pos[len(m.Pos)-1]}))
		if m.cfg.ExchangeForces {
			// Reverse communication of boundary force contributions.
			env.Irecv(rt.WorldVID, left, 23, "frcL", 0, 8)
			env.Irecv(rt.WorldVID, right, 24, "frcR", 0, 8)
			env.Send(rt.WorldVID, left, 24, mpi.F64Bytes([]float64{m.Frc[0]}))
			env.Send(rt.WorldVID, right, 23, mpi.F64Bytes([]float64{m.Frc[len(m.Frc)-1]}))
		}
		m.Phase = 1
		env.WaitAll()
	case 1: // periodic global energy
		if (m.Iter+1)%m.cfg.EnergyEvery == 0 {
			putF64(m.bufs.Get("energy"), m.Energy)
			m.Phase = 2
			env.Allreduce(rt.WorldVID, mpi.OpSum, "energy")
		} else {
			m.Iter++
			m.Phase = 0
		}
	case 2: // consume global energy
		m.Energy = getF64(m.bufs.Get("energy"))
		m.Iter++
		m.Phase = 0
	}
	return m.Iter < m.cfg.Steps, nil
}

// SnapshotTo implements rt.App: the header words Iter, Phase and Energy,
// then Pos, Vel and Frc, then the buffers (rt.Buffers).
func (m *MD) SnapshotTo(w io.Writer) error {
	return m.bufs.SnapshotTo(w, []uint64{uint64(m.Iter), uint64(m.Phase), math.Float64bits(m.Energy)},
		m.Pos, m.Vel, m.Frc)
}

// Restore implements rt.App.
func (m *MD) Restore(data []byte) error {
	var h [3]uint64
	if err := m.bufs.Restore(m.cfg.AppName, data, h[:], 3, m.cfg.Steps, m.Pos, m.Vel, m.Frc); err != nil {
		return err
	}
	m.Iter, m.Phase, m.Energy = int(h[0]), int(h[1]), math.Float64frombits(h[2])
	return nil
}
