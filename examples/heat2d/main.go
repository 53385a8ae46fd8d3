// heat2d solves the 2-D heat equation with a Cartesian domain decomposition
// — the classic MPI teaching example — as a checkpointable mana application.
// Each rank owns a tile of the grid; every step exchanges one-cell halos
// with its four neighbors (found via mana.Grid topology math) and applies a
// 5-point Jacobi stencil; every few steps the global heat is reduced to
// verify conservation. The run checkpoints mid-solve and restarts, and the
// final temperature field is verified against the uninterrupted run.
package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
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

	// Named halo buffers (receives land here).
	HaloN, HaloS []byte // rows: tileN cells
	HaloW, HaloE []byte // cols: tileN cells
	Sum          []byte

	grid         mana.Grid
	north, south int
	west, east   int
	coords       []int
}

func newHeatApp() *heatApp {
	side := tileN + 2
	return &heatApp{
		U:     make([]float64, side*side),
		Next:  make([]float64, side*side),
		HaloN: make([]byte, 8*tileN),
		HaloS: make([]byte, 8*tileN),
		HaloW: make([]byte, 8*tileN),
		HaloE: make([]byte, 8*tileN),
		Sum:   make([]byte, 8),
	}
}

func (h *heatApp) Name() string { return "heat2d" }

func (h *heatApp) Setup(env *mana.Env) error {
	dims := mana.DimsCreate(env.Size(), 2)
	h.grid = mana.NewGrid(dims, []bool{false, false})
	me := env.Rank()
	h.coords = h.grid.Coords(me)
	_, h.south = h.grid.Shift(me, 0, 1)
	h.north, _ = h.grid.Shift(me, 0, 1)
	h.west, _ = h.grid.Shift(me, 1, 1)
	_, h.east = h.grid.Shift(me, 1, 1)

	// Initial condition: a hot square in the middle of the global domain.
	midR, midC := dims[0]/2, dims[1]/2
	if h.coords[0] == midR && h.coords[1] == midC {
		for r := tileN / 4; r < 3*tileN/4; r++ {
			for c := tileN / 4; c < 3*tileN/4; c++ {
				h.U[h.idx(r+1, c+1)] = 100
			}
		}
	}
	return nil
}

func (h *heatApp) idx(r, c int) int { return r*(tileN+2) + c }

func (h *heatApp) Buffer(id string) []byte {
	switch id {
	case "haloN":
		return h.HaloN
	case "haloS":
		return h.HaloS
	case "haloW":
		return h.HaloW
	case "haloE":
		return h.HaloE
	case "sum":
		return h.Sum
	}
	return nil
}

func (h *heatApp) edge(side string) []float64 {
	out := make([]float64, tileN)
	for i := 0; i < tileN; i++ {
		switch side {
		case "n":
			out[i] = h.U[h.idx(1, i+1)]
		case "s":
			out[i] = h.U[h.idx(tileN, i+1)]
		case "w":
			out[i] = h.U[h.idx(i+1, 1)]
		case "e":
			out[i] = h.U[h.idx(i+1, tileN)]
		}
	}
	return out
}

func (h *heatApp) Step(env *mana.Env) (bool, error) {
	switch h.Phase {
	case 0: // halo exchange (PROC_NULL edges skipped)
		if h.north >= 0 {
			env.Irecv(mana.WorldVID, h.north, 70, "haloN", 0, 8*tileN)
			env.Send(mana.WorldVID, h.north, 71, mana.F64Bytes(h.edge("n")))
		}
		if h.south >= 0 {
			env.Irecv(mana.WorldVID, h.south, 71, "haloS", 0, 8*tileN)
			env.Send(mana.WorldVID, h.south, 70, mana.F64Bytes(h.edge("s")))
		}
		if h.west >= 0 {
			env.Irecv(mana.WorldVID, h.west, 72, "haloW", 0, 8*tileN)
			env.Send(mana.WorldVID, h.west, 73, mana.F64Bytes(h.edge("w")))
		}
		if h.east >= 0 {
			env.Irecv(mana.WorldVID, h.east, 73, "haloE", 0, 8*tileN)
			env.Send(mana.WorldVID, h.east, 72, mana.F64Bytes(h.edge("e")))
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
			copy(h.Sum, mana.F64Bytes([]float64{local}))
			h.Phase = 2
			env.Allreduce(mana.WorldVID, mana.OpSum, "sum")
		} else {
			h.Iter++
			h.Phase = 0
		}
	case 2: // consume global heat
		h.Heat = mana.BytesF64(h.Sum)[0]
		h.Iter++
		h.Phase = 0
	}
	return h.Iter < steps, nil
}

// unpack copies received halos into the border; absent neighbors leave
// zeros (Dirichlet boundary).
func (h *heatApp) unpack() {
	for i := 0; i < tileN; i++ {
		if h.north >= 0 {
			h.U[h.idx(0, i+1)] = mana.BytesF64(h.HaloN)[i]
		}
		if h.south >= 0 {
			h.U[h.idx(tileN+1, i+1)] = mana.BytesF64(h.HaloS)[i]
		}
		if h.west >= 0 {
			h.U[h.idx(i+1, 0)] = mana.BytesF64(h.HaloW)[i]
		}
		if h.east >= 0 {
			h.U[h.idx(i+1, tileN+1)] = mana.BytesF64(h.HaloE)[i]
		}
	}
}

func (h *heatApp) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Iter, Phase                     int
		U                               []float64
		Heat                            float64
		HaloN, HaloS, HaloW, HaloE, Sum []byte
	}{h.Iter, h.Phase, h.U, h.Heat, h.HaloN, h.HaloS, h.HaloW, h.HaloE, h.Sum})
	return buf.Bytes(), err
}

func (h *heatApp) Restore(data []byte) error {
	var st struct {
		Iter, Phase                     int
		U                               []float64
		Heat                            float64
		HaloN, HaloS, HaloW, HaloE, Sum []byte
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	h.Iter, h.Phase, h.Heat = st.Iter, st.Phase, st.Heat
	copy(h.U, st.U)
	copy(h.HaloN, st.HaloN)
	copy(h.HaloS, st.HaloS)
	copy(h.HaloW, st.HaloW)
	copy(h.HaloE, st.HaloE)
	copy(h.Sum, st.Sum)
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
			if math.Abs(got[r].U[i]-ref[r].U[i]) > 1e-12 {
				log.Fatalf("rank %d cell %d diverged: %g vs %g", r, i, got[r].U[i], ref[r].U[i])
			}
		}
	}
	fmt.Println("restarted temperature field is bit-identical to the uninterrupted run")
	fmt.Printf("final global heat: %.6f (initial hot square = %.0f)\n",
		got[0].Heat, float64(tileN/2*tileN/2*100))
}
