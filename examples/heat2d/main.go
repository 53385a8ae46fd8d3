// heat2d solves the 2-D heat equation with a Cartesian domain decomposition
// — the classic MPI teaching example — as a checkpointable mana application.
// Each rank owns a tile of the grid; every step exchanges one-cell halos
// with its four neighbors (found via mana.Grid topology math) and applies a
// 5-point Jacobi stencil; every few steps the global heat is reduced to
// verify conservation. The run checkpoints mid-solve and restarts, and the
// final temperature field is verified against the uninterrupted run.
package main

import (
	"fmt"
	"io"
	"log"
	"math"

	"mana"
)

const (
	tileN  = 24  // interior cells per tile side
	steps  = 150 // Jacobi iterations
	alpha  = 0.2 // diffusion number (stable: <= 0.25)
	reduce = 25  // heat reduction every this many steps
)

type heatApp struct {
	Iter  int
	Phase int
	// U holds the tile with a one-cell halo border: (tileN+2)^2 cells.
	U    []float64
	Next []float64
	Heat float64

	// Named buffers (receives land here): the halo rows "haloN" and "haloS"
	// and columns "haloW" and "haloE", tileN cells each, and the heat "sum".
	bufs  mana.Buffers
	sides [4]side
}

// side is the halo exchange with one neighbor (peer < 0: none, a Dirichlet
// boundary): the tileN edge cells stride apart from edge go to the peer with
// tag^1, and the peer's land in buffer id with tag, then in the ghost cells.
type side struct {
	id                  string
	peer, tag           int
	edge, ghost, stride int
}

func newHeatApp() *heatApp {
	side := tileN + 2
	h := &heatApp{U: make([]float64, side*side), Next: make([]float64, side*side)}
	for _, id := range []string{"haloN", "haloS", "haloW", "haloE"} {
		h.bufs.Add(id, 8*tileN)
	}
	h.bufs.Add("sum", 8)
	return h
}

func (h *heatApp) Name() string { return "heat2d" }

func (h *heatApp) Setup(env *mana.Env) error {
	dims := mana.DimsCreate(env.Size(), 2)
	grid := mana.NewGrid(dims, []bool{false, false})
	me := env.Rank()
	north, south := grid.Shift(me, 0, 1)
	west, east := grid.Shift(me, 1, 1)
	h.sides = [4]side{
		{"haloN", north, 70, h.idx(1, 1), h.idx(0, 1), 1},
		{"haloS", south, 71, h.idx(tileN, 1), h.idx(tileN+1, 1), 1},
		{"haloW", west, 72, h.idx(1, 1), h.idx(1, 0), tileN + 2},
		{"haloE", east, 73, h.idx(1, tileN), h.idx(1, tileN+1), tileN + 2},
	}

	// Initial condition: a hot square in the middle of the global domain.
	if coords := grid.Coords(me); coords[0] == dims[0]/2 && coords[1] == dims[1]/2 {
		for r := tileN / 4; r < 3*tileN/4; r++ {
			for c := tileN / 4; c < 3*tileN/4; c++ {
				h.U[h.idx(r+1, c+1)] = 100
			}
		}
	}
	return nil
}

func (h *heatApp) idx(r, c int) int { return r*(tileN+2) + c }

func (h *heatApp) Buffer(id string) []byte { return h.bufs.Get(id) }

func (h *heatApp) Step(env *mana.Env) (bool, error) {
	switch h.Phase {
	case 0: // halo exchange (PROC_NULL edges skipped)
		for _, s := range h.sides {
			if s.peer < 0 {
				continue
			}
			edge := make([]float64, tileN)
			for i := range edge {
				edge[i] = h.U[s.edge+i*s.stride]
			}
			env.Irecv(mana.WorldVID, s.peer, s.tag, s.id, 0, 8*tileN)
			env.Send(mana.WorldVID, s.peer, s.tag^1, mana.F64Bytes(edge))
		}
		env.Compute(200e-6)
		h.Phase = 1
		env.WaitAll()
	case 1: // unpack halos, Jacobi update
		h.unpack()
		for r := 1; r <= tileN; r++ {
			for c := 1; c <= tileN; c++ {
				u := h.U[h.idx(r, c)]
				lap := h.U[h.idx(r-1, c)] + h.U[h.idx(r+1, c)] +
					h.U[h.idx(r, c-1)] + h.U[h.idx(r, c+1)] - 4*u
				h.Next[h.idx(r, c)] = u + alpha*lap
			}
		}
		h.U, h.Next = h.Next, h.U
		if (h.Iter+1)%reduce == 0 {
			local := 0.0
			for r := 1; r <= tileN; r++ {
				for c := 1; c <= tileN; c++ {
					local += h.U[h.idx(r, c)]
				}
			}
			copy(h.bufs.Get("sum"), mana.F64Bytes([]float64{local}))
			h.Phase = 2
			env.Allreduce(mana.WorldVID, mana.OpSum, "sum")
		} else {
			h.Iter++
			h.Phase = 0
		}
	case 2: // consume global heat
		h.Heat = mana.BytesF64(h.bufs.Get("sum"))[0]
		h.Iter++
		h.Phase = 0
	default:
		return false, fmt.Errorf("heat2d: phase %d outside [0, 2]", h.Phase)
	}
	return h.Iter < steps, nil
}

// unpack copies received halos into the border; absent neighbors leave
// zeros (Dirichlet boundary).
func (h *heatApp) unpack() {
	for _, s := range h.sides {
		if s.peer < 0 {
			continue
		}
		for i, x := range mana.BytesF64(h.bufs.Get(s.id)) {
			h.U[s.ghost+i*s.stride] = x
		}
	}
}

// SnapshotTo writes the header words Iter, Phase and Heat, the tile U, and
// the named buffers (Next is scratch every step rewrites).
func (h *heatApp) SnapshotTo(w io.Writer) error {
	return h.bufs.SnapshotTo(w, []uint64{uint64(h.Iter), uint64(h.Phase), math.Float64bits(h.Heat)}, h.U)
}

// Restore refuses a snapshot that does not fit this rank — another length, a
// phase Step has no case for, an iteration past the run, other buffers —
// and leaves the rank as it was.
func (h *heatApp) Restore(data []byte) error {
	var w [3]uint64
	if err := h.bufs.Restore(h.Name(), data, w[:], 3, steps, h.U); err != nil {
		return err
	}
	h.Iter, h.Phase, h.Heat = int(w[0]), int(w[1]), math.Float64frombits(w[2])
	return nil
}

func main() {
	cfg := mana.Config{
		Ranks: 16, PPN: 8,
		Params:    mana.PerlmutterLike(),
		Algorithm: mana.AlgoCC,
	}
	// Reference: uninterrupted run.
	ref := make([]*heatApp, cfg.Ranks)
	repRef, err := mana.Run(cfg, func(rank int) mana.App {
		a := newHeatApp()
		ref[rank] = a
		return a
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uninterrupted: %d steps on a %v grid of %dx%d tiles, heat=%.6f, vt=%.3fs\n",
		steps, mana.DimsCreate(cfg.Ranks, 2), tileN, tileN, ref[0].Heat, repRef.RuntimeVT)

	// Checkpoint mid-solve and restart.
	ck := cfg
	ck.Checkpoint = &mana.CkptPlan{AtVT: repRef.RuntimeVT / 2, Mode: mana.ExitAfterCapture}
	rep1, err := mana.Run(ck, func(int) mana.App { return newHeatApp() })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed at vt=%.3fs (%d KB of tile state)\n",
		rep1.Checkpoint.CaptureVT, rep1.Checkpoint.ImageBytes>>10)

	got := make([]*heatApp, cfg.Ranks)
	if _, err := mana.RestartFromStore(cfg, rep1.Store, rep1.Checkpoint.Epoch, func(rank int) mana.App {
		a := newHeatApp()
		got[rank] = a
		return a
	}); err != nil {
		log.Fatal(err)
	}
	for r := range ref {
		for i := range ref[r].U {
			if math.Float64bits(got[r].U[i]) != math.Float64bits(ref[r].U[i]) {
				log.Fatalf("rank %d cell %d diverged: %g vs %g", r, i, got[r].U[i], ref[r].U[i])
			}
		}
	}
	fmt.Println("restarted temperature field is bit-identical to the uninterrupted run")
	fmt.Printf("final global heat: %.6f (initial hot square = %.0f)\n",
		got[0].Heat, float64(tileN/2*tileN/2*100))
}
