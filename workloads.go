package mana

import "mana/internal/apps"

// Workload configuration types, re-exported for users who want to tune the
// built-in proxy applications directly.
type (
	// OSUConfig parametrizes an OSU-style micro-benchmark loop.
	OSUConfig = apps.OSUConfig
	// VASPConfig parametrizes the VASP (FFT-transpose) proxy.
	VASPConfig = apps.VASPConfig
	// PoissonConfig parametrizes the non-blocking-CG Poisson solver.
	PoissonConfig = apps.PoissonConfig
	// MDConfig parametrizes the CoMD/LAMMPS molecular-dynamics proxies.
	MDConfig = apps.MDConfig
	// SW4Config parametrizes the 4th-order wave-equation proxy.
	SW4Config = apps.SW4Config
)

// WorkloadNames lists the built-in real-world proxy workloads in the
// paper's Table 1 order.
var WorkloadNames = apps.Names

// Workload returns a per-rank factory for a built-in workload ("vasp",
// "poisson", "comd", "lammps", "sw4"), with iteration counts scaled by
// scale (1.0 = the paper's full virtual runtimes).
func Workload(name string, scale float64) (func(rank int) App, error) {
	return apps.Factory(name, scale)
}

// NewOSU creates an OSU micro-benchmark app.
func NewOSU(cfg OSUConfig) App { return apps.NewOSU(cfg) }

// NewVASPMini creates the VASP proxy.
func NewVASPMini(cfg VASPConfig) App { return apps.NewVASPMini(cfg) }

// NewPoisson creates the Poisson solver.
func NewPoisson(cfg PoissonConfig) App { return apps.NewPoisson(cfg) }

// NewMD creates a molecular-dynamics proxy (see DefaultCoMDConfig and
// DefaultLJConfig).
func NewMD(cfg MDConfig) App { return apps.NewMD(cfg) }

// NewSW4Mini creates the wave-equation proxy.
func NewSW4Mini(cfg SW4Config) App { return apps.NewSW4Mini(cfg) }

// Default workload configurations (calibrated to Table 1's rates).
var (
	DefaultVASPConfig    = apps.DefaultVASPConfig
	DefaultPoissonConfig = apps.DefaultPoissonConfig
	DefaultCoMDConfig    = apps.DefaultCoMDConfig
	DefaultLJConfig      = apps.DefaultLJConfig
	DefaultSW4Config     = apps.DefaultSW4Config
)
