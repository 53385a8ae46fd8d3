package apps

import (
	"fmt"

	"mana/internal/netmodel"
	"mana/internal/rt"
)

// OSUConfig parametrizes one OSU-style micro-benchmark: a tight loop of one
// collective operation at a fixed message size (paper §5.1, Figures 5-6).
type OSUConfig struct {
	Kind        netmodel.CollKind
	Nonblocking bool
	Size        int // message size in bytes
	Iterations  int
	// ComputeWindow inserts this much computation (seconds) between
	// initiation and completion of non-blocking operations — the OSU
	// overlap benchmark (Figure 6).
	ComputeWindow float64
}

// OSU is the micro-benchmark application.
type OSU struct {
	cfg   OSUConfig
	Iter  int
	Phase int
	bufs  rt.Buffers // empty: the collectives are size-only
}

// NewOSU creates the micro-benchmark app for one rank.
func NewOSU(cfg OSUConfig) *OSU {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 100
	}
	return &OSU{cfg: cfg}
}

// Name implements rt.App.
func (o *OSU) Name() string {
	mode := ""
	if o.cfg.Nonblocking {
		mode = "I"
	}
	return fmt.Sprintf("osu-%s%v-%dB", mode, o.cfg.Kind, o.cfg.Size)
}

// Setup implements rt.App.
func (o *OSU) Setup(env *rt.Env) error { return nil }

// Buffer implements rt.App (size-only collectives use no data buffers).
func (o *OSU) Buffer(id string) []byte { return nil }

// Step implements rt.App.
func (o *OSU) Step(env *rt.Env) (bool, error) {
	if o.cfg.Nonblocking {
		switch o.Phase {
		case 0: // initiate, optionally overlap computation
			env.IBenchCollective(rt.WorldVID, o.cfg.Kind, 0, o.cfg.Size)
			if o.cfg.ComputeWindow > 0 {
				env.Compute(o.cfg.ComputeWindow)
			}
			o.Phase = 1
		case 1: // complete
			o.Iter++
			o.Phase = 0
			env.WaitAll()
		}
		return o.Iter < o.cfg.Iterations, nil
	}
	o.Iter++
	env.BenchCollective(rt.WorldVID, o.cfg.Kind, 0, o.cfg.Size)
	return o.Iter < o.cfg.Iterations, nil
}

// Snapshot implements rt.App: the header words Iter and Phase (rt.Buffers).
func (o *OSU) Snapshot() ([]byte, error) {
	return o.bufs.Snapshot([]uint64{uint64(o.Iter), uint64(o.Phase)}), nil
}

// Restore implements rt.App. A blocking loop has the one phase 0.
func (o *OSU) Restore(data []byte) error {
	phases := 1
	if o.cfg.Nonblocking {
		phases = 2
	}
	var h [2]uint64
	if err := o.bufs.Restore("osu", data, h[:], phases, o.cfg.Iterations); err != nil {
		return err
	}
	o.Iter, o.Phase = int(h[0]), int(h[1])
	return nil
}
