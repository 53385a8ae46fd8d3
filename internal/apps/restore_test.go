package apps

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mana/internal/netmodel"
	"mana/internal/rt"
)

// bufferSetApp is one of the apps that snapshot through rt.Buffers.Snapshot,
// at a small configuration, with what its Restore must hold a snapshot to.
type bufferSetApp struct {
	name          string // the prefix of its errors
	phases, iters int    // Step's cases are [0, phases); Iter is in [0, iters]
	boolAt        int    // index of a bool header word, or 0 for none
	// factory builds its ranks; other, if not nil, ranks of another size.
	factory, other func(rank int) rt.App
}

func bufferSetApps() []bufferSetApp {
	osu := func(int) rt.App {
		return NewOSU(OSUConfig{Kind: netmodel.Allreduce, Nonblocking: true, Size: 8, Iterations: 12})
	}
	p2p := func(size int) func(int) rt.App {
		return func(int) rt.App { return NewOSUP2P(OSUP2PConfig{Size: size, Iterations: 12, Peer: 1}) }
	}
	poisson := func(n int) func(int) rt.App {
		return func(int) rt.App { return NewPoisson(PoissonConfig{N: n, MaxIters: 12, Tol: 1e-12, ComputeVT: 1e-3}) }
	}
	md := func(cfg MDConfig, k int) func(int) rt.App {
		cfg.Particles, cfg.Steps, cfg.EnergyEvery = k, 12, 3
		return func(int) rt.App { return NewMD(cfg) }
	}
	sw4 := func(n int) func(int) rt.App {
		return func(int) rt.App { return NewSW4Mini(SW4Config{N: n, Steps: 12, StabilityEvery: 3, ComputeVT: 1e-3}) }
	}
	return []bufferSetApp{
		{"osu", 2, 12, 0, osu, nil},
		{"osu-p2p", 3, 12, 0, p2p(8), p2p(16)},
		{"poisson", 8, 12, 4, poisson(32), poisson(64)},
		{"comd", 3, 12, 0, md(DefaultCoMDConfig(), 16), md(DefaultCoMDConfig(), 24)},
		{"lammps", 3, 12, 0, md(DefaultLJConfig(), 16), md(DefaultLJConfig(), 24)},
		{"sw4", 3, 12, 0, sw4(16), sw4(24)},
	}
}

// midRun runs a short native job of four ranks and returns rank 0, Setup
// and run to the end, with the snapshot it took after its fifth Step.
func midRun(t testing.TB, factory func(rank int) rt.App) (rt.App, []byte) {
	t.Helper()
	probes := make([]*snapshotProbe, 4)
	if _, err := rt.Run(smallConfig(4, rt.AlgoNative), func(rank int) rt.App {
		probes[rank] = &snapshotProbe{App: factory(rank), at: 5}
		return probes[rank]
	}); err != nil {
		t.Fatal(err)
	}
	if p := probes[0]; p.err != nil || p.snap == nil {
		t.Fatalf("no mid-run snapshot (%d steps, err %v)", p.steps, p.err)
	}
	return probes[0].App, probes[0].snap
}

// bufsOf is the buffer registry of a buffer-set app.
func bufsOf(app rt.App) *rt.Buffers {
	switch a := app.(type) {
	case *OSU:
		return &a.bufs
	case *OSUP2P:
		return &a.bufs
	case *Poisson:
		return &a.bufs
	case *MD:
		return &a.bufs
	case *SW4Mini:
		return &a.bufs
	}
	panic(fmt.Sprintf("%T is not a buffer-set app", app))
}

// splitBufs reads a well-formed buffer section back into its entries.
func splitBufs(sec []byte) []bufEntry {
	var out []bufEntry
	for len(sec) > 0 {
		n := 8 + binary.LittleEndian.Uint64(sec)
		id := string(sec[8:n])
		sec = sec[n:]
		n = 8 + binary.LittleEndian.Uint64(sec)
		out = append(out, bufEntry{id, sec[8:n]})
		sec = sec[n:]
	}
	return out
}

// retiredAppGob is app's state as gob wrote it before the fixed-width
// layout: the same anonymous struct, field for field (only the buffer
// element type's name differs, in the case of its first letter).
func retiredAppGob(t testing.TB, app rt.App) []byte {
	t.Helper()
	var v any
	switch a := app.(type) {
	case *OSU:
		v = struct{ Iter, Phase int }{a.Iter, a.Phase}
	case *OSUP2P:
		v = struct {
			Iter, Phase int
			Buf         []byte
		}{a.Iter, a.Phase, a.bufs.Get("buf")}
	case *Poisson:
		v = struct {
			Iter, Phase   int
			X, R, P, Q    []float64
			Rho, Residual float64
			Converged     bool
			Bufs          []bufEntry
		}{a.Iter, a.Phase, a.X, a.R, a.P, a.Q, a.Rho, a.Residual, a.Converged, entriesOf(&a.bufs)}
	case *MD:
		v = struct {
			Iter, Phase   int
			Pos, Vel, Frc []float64
			Energy        float64
			Bufs          []bufEntry
		}{a.Iter, a.Phase, a.Pos, a.Vel, a.Frc, a.Energy, entriesOf(&a.bufs)}
	case *SW4Mini:
		v = struct {
			Iter, Phase int
			U, Uprev    []float64
			MaxU        float64
			Bufs        []bufEntry
		}{a.Iter, a.Phase, a.U, a.Uprev, a.MaxU, entriesOf(&a.bufs)}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppRestoreHostile: a snapshot that does not fit a buffer-set app's
// rank — cut short, a phase Step has no case for, an iteration outside the
// run, arrays of another size, other buffers than Setup registered, a byte
// too many, a bool word that is not 0 or 1, the retired gob bytes — is
// refused with an error naming the app, and the rank is left as it was.
// Through gob these Restores checked nothing: a snapshot with phase 9 or
// arrays of another length restored with a nil error.
func TestAppRestoreHostile(t *testing.T) {
	for _, a := range bufferSetApps() {
		dst, good := midRun(t, a.factory)
		head := good[:len(good)-bufsOf(dst).SectionLen()]
		bufs := splitBufs(good[len(head):])
		if !bytes.Equal(layBufs(head, bufs...), good) {
			t.Fatalf("%s: the buffer section does not re-lay to itself", a.name)
		}
		// poke returns good with header word i replaced by w.
		poke := func(i int, w uint64) []byte {
			b := bytes.Clone(good)
			binary.LittleEndian.PutUint64(b[8*i:], w)
			return b
		}
		// relay returns good with its buffer section laid from es.
		relay := func(es ...bufEntry) []byte { return layBufs(bytes.Clone(head), es...) }
		type hostile struct {
			name, want string
			data       []byte
		}
		var cases []hostile
		for n := 0; n < len(good); n++ {
			cases = append(cases, hostile{fmt.Sprintf("truncated to %d bytes", n), "", good[:n]})
		}
		cases = append(cases,
			hostile{"phase past Step's cases", "phase", poke(1, uint64(a.phases))},
			hostile{"negative phase", "phase", poke(1, 1<<63)},
			hostile{"iteration past the run", "iteration", poke(0, uint64(a.iters+1))},
			hostile{"negative iteration", "iteration", poke(0, ^uint64(0))},
			hostile{"trailing byte", "", append(bytes.Clone(good), 0)},
			hostile{"an extra buffer", "", relay(append(slices.Clone(bufs), bufEntry{"zz", make([]byte, 8)})...)},
			hostile{"the retired gob layout", "", retiredAppGob(t, dst)},
		)
		if a.boolAt > 0 {
			cases = append(cases, hostile{"bool word 2", "neither 0 nor 1", poke(a.boolAt, 2)})
		}
		if a.other != nil {
			_, snap := midRun(t, a.other)
			cases = append(cases, hostile{"a rank of another size", "bytes", snap})
		}
		if len(bufs) > 0 {
			short := slices.Clone(bufs)
			short[0].Data = short[0].Data[1:]
			unknown := slices.Clone(bufs)
			unknown[len(unknown)-1].ID = strings.Repeat("~", len(unknown[len(unknown)-1].ID))
			cases = append(cases,
				hostile{"a missing buffer", "", relay(bufs[1:]...)},
				hostile{"an unknown buffer", "unknown", relay(unknown...)},
				hostile{"a short buffer", "", relay(short...)},
			)
			if len(bufs) > 1 {
				swapped := slices.Clone(bufs)
				swapped[0], swapped[1] = swapped[1], swapped[0]
				shifted := slices.Clone(bufs) // one byte moved from the first buffer to the second
				shifted[0].Data, shifted[1].Data = shifted[0].Data[1:], append(bytes.Clone(shifted[1].Data), 0)
				cases = append(cases,
					hostile{"buffers out of order", "strictly increase", relay(swapped...)},
					hostile{"the first buffer twice", "", relay(append([]bufEntry{bufs[0]}, bufs[:len(bufs)-1]...)...)},
					hostile{"buffers of other sizes", "size", relay(shifted...)},
				)
			}
		}
		t.Logf("%s: %d cases on a %d-byte snapshot at iteration %d, phase %d", a.name, len(cases), len(good), word(good, 0), word(good, 1))
		before, _ := snapshot(dst)
		for _, c := range cases {
			err := dst.Restore(c.data)
			if err == nil || !strings.HasPrefix(err.Error(), a.name+": ") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s: got %v, want a %s: error about %q", a.name, c.name, err, a.name, c.want)
			}
			if after, _ := snapshot(dst); !bytes.Equal(after, before) {
				t.Errorf("%s: %s: a refused snapshot changed the rank", a.name, c.name)
			}
		}
		if err := dst.Restore(good); err != nil {
			t.Fatalf("%s: the mid-run snapshot the cases edit is refused: %v", a.name, err)
		}
		if again, _ := snapshot(dst); !bytes.Equal(again, good) {
			t.Fatalf("%s: restore did not round-trip the mid-run snapshot", a.name)
		}
	}
}

// TestRestoreAllocs: restoring a snapshot allocates VASP's slab and nothing
// else, and nothing at all for the buffer-set apps. Through gob these
// Restores made 154–247 allocations each (VASP 229): a decoder, the type
// exchange and a compiled engine per call.
func TestRestoreAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own account")
	}
	cfg := VASPConfig{Iterations: 10, SlabN: 64}
	vasp, err := snapshot(vaspRank(cfg))
	if err != nil {
		t.Fatal(err)
	}
	type rank struct {
		name  string
		app   rt.App
		snap  []byte
		limit float64
	}
	ranks := []rank{{"vasp", vaspRank(cfg), vasp, 1}}
	for _, a := range bufferSetApps() {
		app, snap := midRun(t, a.factory)
		ranks = append(ranks, rank{a.name, app, snap, 0})
	}
	for _, r := range ranks {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := r.app.Restore(r.snap); err != nil {
				t.Fatal(err)
			}
		}); allocs > r.limit {
			t.Errorf("%s: Restore allocates %v times, want at most %v", r.name, allocs, r.limit)
		}
	}
}

// FuzzAppRestore: arbitrary bytes, restored into the rank the first input
// picks — VASP or one of the buffer-set apps — are refused with an error
// naming the app, keeping nothing and leaving the rank as it was, or
// restore a state that snapshots back to exactly those bytes: each layout
// has one encoding per state. Restore never allocates more than the input's
// length, past a 1 KiB floor for an error message.
func FuzzAppRestore(f *testing.F) {
	cfg := VASPConfig{Iterations: 10, SlabN: 8}
	good := vaspImage(1, 2, 0.5, 9, make([]complex128, cfg.SlabN), vaspBufs("ata", "energy", "haloL", "haloR")...)
	f.Add(byte(0), good)
	f.Add(byte(0), good[:len(good)-1])
	f.Add(byte(0), append(append([]byte(nil), good...), 0))
	f.Add(byte(0), vaspImage(1, 2, 0.5, 9, make([]complex128, cfg.SlabN), vaspBufs("energy", "energy", "haloL", "haloR")...))
	f.Add(byte(0), retiredVASPGob(f, cfg))

	// ranks[k] is the k-th buffer-set app's rank 0, restored to its mid-run
	// snapshot home[k] after each input it accepts.
	var ranks []rt.App
	var names []string
	var home [][]byte
	for _, a := range bufferSetApps() {
		app, snap := midRun(f, a.factory)
		ranks, names, home = append(ranks, app), append(names, a.name), append(home, snap)
		f.Add(byte(len(ranks)), snap)
	}
	checkAllocs := !raceBuild()
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		var app rt.App = vaspRank(cfg)
		name, k := "vasp", int(pick)%(len(ranks)+1)-1
		if k >= 0 {
			app, name = ranks[k], names[k]
			if err := app.Restore(home[k]); err != nil {
				t.Fatalf("%s: the mid-run snapshot is refused: %v", name, err)
			}
		}
		before, _ := snapshot(app)
		// Restore may keep what it is given, so it gets a copy and data
		// stays the reference.
		in := bytes.Clone(data)
		var err error
		got := heapBytes(func() { err = app.Restore(in) })
		if limit := uint64(len(data)) + (1 << 10); checkAllocs && got > limit {
			t.Fatalf("%s: Restore of %d bytes allocated %d (limit %d; err %v)", name, len(data), got, limit, err)
		}
		after, _ := snapshot(app)
		switch {
		case err != nil && !strings.HasPrefix(err.Error(), name+": "):
			t.Fatalf("refusal without the %s: prefix: %v", name, err)
		case err != nil && !bytes.Equal(after, before):
			t.Fatalf("%s: a refused snapshot changed the rank: %v", name, err)
		case err == nil && !bytes.Equal(after, data):
			t.Fatalf("%s: restored %d bytes, snapshot back %d: not the same bytes", name, len(data), len(after))
		}
		if err != nil {
			scribble(in)
			if again, _ := snapshot(app); !bytes.Equal(again, before) {
				t.Fatalf("%s: a refused Restore kept its input: %v", name, err)
			}
		}
	})
}
