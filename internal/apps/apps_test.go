package apps

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// --- FFT kernel -----------------------------------------------------------

// fftForward computes the in-place forward DFT of a power-of-two-length
// complex vector.
func fftForward(x []complex128) { newFFTPlan(len(x), false).transform(x) }

// fftInverse computes the in-place inverse DFT (normalized by 1/N).
func fftInverse(x []complex128) { newFFTPlan(len(x), true).transform(x) }

// refFFTPlan is fftPlan, and its transform fftPlan's, as they were before the
// bit-reversal was tabulated, the butterflies re-sliced and the inverse's
// division written out, kept verbatim but for the names: the reference
// TestFFTPlanBitIdentical holds fftPlan to bit for bit, and the yardstick
// BenchmarkFFTPlanRatio times it against.
type refFFTPlan struct {
	inverse bool
	stages  [][]complex128
}

func newRefFFTPlan(n int, inverse bool) *refFFTPlan {
	if n&(n-1) != 0 {
		panic("apps: FFT length must be a power of two")
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	p := &refFFTPlan{inverse: inverse}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := complex(math.Cos(ang), math.Sin(ang))
		tw := make([]complex128, length/2)
		w := complex(1, 0)
		for j := range tw {
			tw[j] = w
			w *= wl
		}
		p.stages = append(p.stages, tw)
	}
	return p
}

func (p *refFFTPlan) transform(x []complex128) {
	n := len(x)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for _, tw := range p.stages {
		half := len(tw)
		for i := 0; i < n; i += 2 * half {
			for j, w := range tw {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
			}
		}
	}
	if p.inverse {
		scale := complex(float64(n), 0)
		for i := range x {
			x[i] /= scale
		}
	}
}

// fftSpecials are the parts a rewritten butterfly or scaling could get wrong:
// both zeros, subnormals, infinities, NaN, and magnitudes whose products
// overflow or underflow.
var fftSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(1), -math.Float64frombits(1), math.Float64frombits(0x000fffffffffffff),
	math.Inf(1), math.Inf(-1), math.NaN(),
	1e300, -1e300, 1e-300, -1e-300,
}

// fftTestVector fills x from rng: noise, with specials injected into none,
// one or about one in eight of its parts, by kind.
func fftTestVector(x []complex128, rng *splitmix64, kind int) {
	part := func() float64 {
		if kind == 2 && rng.next()%8 == 0 || kind == 1 && rng.next()%uint64(2*len(x)) == 0 {
			return fftSpecials[rng.next()%uint64(len(fftSpecials))]
		}
		return (rng.float() - 0.5) * math.Ldexp(1, int(rng.next()%64)-32)
	}
	for i := range x {
		x[i] = complex(part(), part())
	}
}

// sameBitsOrNaN reports whether each part of got is want's bit for bit, or
// NaN where want's is: a NaN's payload is not compared.
func sameBitsOrNaN(got, want complex128) bool {
	same := func(g, w float64) bool {
		return math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
	}
	return same(real(got), real(want)) && same(imag(got), imag(want))
}

// TestFFTPlanBitIdentical: the planned transform's every output bit is the
// reference's, in both directions at every power-of-two length up to 1024,
// over seeded vectors carrying ±0, subnormals, ±Inf, NaN and 1e±300 parts. A
// NaN must sit where the reference has one; its payload follows register
// allocation and is not compared. -short (CI's race run) takes a tenth of
// the vectors; CI runs the full count by name without the race detector.
func TestFFTPlanBitIdentical(t *testing.T) {
	vectors := 10000
	if testing.Short() {
		vectors = 1000
	}
	for n := 2; n <= 1024; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			plan, ref := newFFTPlan(n, inverse), newRefFFTPlan(n, inverse)
			rng := splitmix64{S: uint64(n) << 1}
			got, want := make([]complex128, n), make([]complex128, n)
			for k := 0; k < vectors; k++ {
				fftTestVector(want, &rng, k%3)
				copy(got, want)
				ref.transform(want)
				plan.transform(got)
				for i := range got {
					if !sameBitsOrNaN(got[i], want[i]) {
						t.Fatalf("n=%d inverse=%v vector %d: element %d is %v, reference %v", n, inverse, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFoldAtaShortCircuit: foldAta takes the modulus only when a part
// exceeds 5e5, and every case either side of that and of |z| = 1e6 — NaN and
// infinite parts included — is folded exactly as the unconditional
// cmplx.Abs(z) > 1e6 test folds it.
func TestFoldAtaShortCircuit(t *testing.T) {
	const above = 5e5
	up := func(f float64) float64 { return math.Nextafter(f, math.Inf(1)) }
	down := func(f float64) float64 { return math.Nextafter(f, 0) }
	inf, nan := math.Inf(1), math.NaN()
	for _, z := range []complex128{
		complex(above, above), complex(-above, above), complex(up(above), 0), complex(0, -up(above)),
		complex(7.07e5, 7.07e5), complex(-7.07e5, -7.07e5), complex(up(above), up(above)),
		complex(1e6, 0), complex(up(1e6), 0), complex(down(1e6), 0), complex(0, up(1e6)), complex(0, -down(1e6)),
		complex(707106.79, 707106.79), complex(707106.78, 707106.78),
		complex(inf, 0), complex(0, -inf), complex(inf, nan), complex(nan, -inf),
		complex(nan, 0), complex(0, nan), complex(nan, nan), complex(nan, 2e6), complex(2e6, nan),
	} {
		v := NewVASPMini(VASPConfig{})
		v.bufs.Add("ata", 8)
		v.Slab = []complex128{z}
		v.foldAta()
		want := z + complex(0*1e-3, 0)
		if cmplx.Abs(want) > 1e6 {
			want /= 1e6
		}
		if got := v.Slab[0]; !sameBitsOrNaN(got, want) {
			t.Errorf("foldAta(%v) = %v, want %v", z, got, want)
		}
	}
}

func TestFFTRoundtrip(t *testing.T) {
	rng := splitmix64{S: 42}
	x := make([]complex128, 128)
	orig := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.float()-0.5, rng.float()-0.5)
		orig[i] = x[i]
	}
	fftForward(x)
	fftInverse(x)
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-12 {
			t.Fatalf("roundtrip error at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	const n = 16
	rng := splitmix64{S: 7}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.float()-0.5, rng.float()-0.5)
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / n
			want[k] += x[j] * cmplx.Exp(complex(0, ang))
		}
	}
	got := append([]complex128(nil), x...)
	fftForward(got)
	for k := 0; k < n; k++ {
		if cmplx.Abs(got[k]-want[k]) > 1e-10 {
			t.Fatalf("bin %d: fft %v, dft %v", k, got[k], want[k])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := splitmix64{S: 99}
	x := make([]complex128, 64)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.float()-0.5, rng.float()-0.5)
		timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	fftForward(x)
	var freqE float64
	for _, z := range x {
		freqE += real(z)*real(z) + imag(z)*imag(z)
	}
	if math.Abs(freqE/float64(len(x))-timeE) > 1e-10 {
		t.Fatalf("Parseval violated: %g vs %g", freqE/64, timeE)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length 12 accepted")
		}
	}()
	fftForward(make([]complex128, 12))
}

// Property: FFT is linear.
func TestPropertyFFTLinear(t *testing.T) {
	f := func(a, b [8]float64, s uint8) bool {
		n := 8
		x := make([]complex128, n)
		y := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			x[i] = complex(clamp(a[i]), 0)
			y[i] = complex(clamp(b[i]), 0)
			sum[i] = x[i] + y[i]
		}
		fftForward(x)
		fftForward(y)
		fftForward(sum)
		for i := 0; i < n; i++ {
			if cmplx.Abs(sum[i]-(x[i]+y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 100)
}

// --- Lennard-Jones --------------------------------------------------------

func TestLJForceShape(t *testing.T) {
	// Repulsive inside the minimum, attractive outside, zero past cutoff.
	rmin := math.Pow(2, 1.0/6)
	if f, _ := ljForce(rmin * 0.8); f <= 0 {
		t.Fatal("short range should repel")
	}
	if f, _ := ljForce(rmin * 1.2); f >= 0 {
		t.Fatal("long range should attract")
	}
	if f, u := ljForce(3.5); f != 0 || u != 0 {
		t.Fatal("beyond cutoff should be zero")
	}
	if f, _ := ljForce(rmin); math.Abs(f) > 1e-10 {
		t.Fatalf("force at minimum should vanish, got %g", f)
	}
	if _, u := ljForce(rmin); u >= 0 {
		t.Fatal("potential at minimum should be negative")
	}
}

// --- Workload runs under the runtime ---------------------------------------

func smallConfig(ranks int, algo string) rt.Config {
	return rt.Config{Ranks: ranks, PPN: 4, Params: netmodel.PerlmutterLike(), Algorithm: algo}
}

func runWorkload(t *testing.T, name string, ranks int, algo string, scale float64) *rt.Report {
	t.Helper()
	factory, err := Factory(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(smallConfig(ranks, algo), factory)
	if err != nil {
		t.Fatalf("%s under %s: %v", name, algo, err)
	}
	if !rep.Completed {
		t.Fatalf("%s did not complete", name)
	}
	return rep
}

func TestAllWorkloadsRunNative(t *testing.T) {
	// Scales chosen so every workload executes at least one collective
	// (the MD/stencil codes reduce only every EnergyEvery steps).
	scales := map[string]float64{"vasp": 0.001, "poisson": 0.02, "comd": 0.01, "lammps": 0.01, "sw4": 0.02}
	for _, name := range Names {
		rep := runWorkload(t, name, 8, rt.AlgoNative, scales[name])
		if rep.RuntimeVT <= 0 {
			t.Errorf("%s: no virtual time", name)
		}
		if rep.Counters.CollCalls() == 0 {
			t.Errorf("%s: no collectives", name)
		}
	}
}

func TestWorkloadCommunicationMix(t *testing.T) {
	// Table 1's qualitative ordering: VASP is collective-heavy; the MD and
	// stencil codes are p2p-dominated; Poisson has no p2p at all.
	vasp := runWorkload(t, "vasp", 8, rt.AlgoNative, 0.001)
	if vasp.Counters.CollCalls() == 0 || vasp.Counters.P2PSends == 0 {
		t.Fatal("vasp must mix collectives and p2p")
	}
	pois := runWorkload(t, "poisson", 8, rt.AlgoNative, 0.02)
	if pois.Counters.P2PSends != 0 {
		t.Fatal("poisson should have no point-to-point traffic")
	}
	if pois.Counters.CollNonblocking == 0 {
		t.Fatal("poisson must use non-blocking collectives")
	}
	if pois.Counters.CollBlocking != 0 {
		t.Fatal("poisson should use only non-blocking collectives")
	}
	for _, name := range []string{"comd", "lammps", "sw4"} {
		rep := runWorkload(t, name, 8, rt.AlgoNative, 0.01)
		if rep.Counters.P2PCalls() <= rep.Counters.CollCalls() {
			t.Errorf("%s should be p2p-dominated: %d p2p vs %d coll",
				name, rep.Counters.P2PCalls(), rep.Counters.CollCalls())
		}
	}
}

func TestTable1RateOrdering(t *testing.T) {
	// Collective call rates must be ordered as in Table 1:
	// vasp >> poisson > comd > lammps > sw4.
	rates := map[string]float64{}
	scales := map[string]float64{"vasp": 0.001, "poisson": 0.05, "comd": 0.02, "lammps": 0.02, "sw4": 0.03}
	for _, name := range Names {
		rep := runWorkload(t, name, 8, rt.AlgoNative, scales[name])
		rates[name] = rep.Rates.CollPerSec
	}
	order := []string{"vasp", "poisson", "comd", "lammps", "sw4"}
	for i := 0; i+1 < len(order); i++ {
		if rates[order[i]] <= rates[order[i+1]] {
			t.Errorf("rate(%s)=%.2f should exceed rate(%s)=%.2f",
				order[i], rates[order[i]], order[i+1], rates[order[i+1]])
		}
	}
}

func TestPoissonConverges(t *testing.T) {
	cfg := PoissonConfig{N: 64, MaxIters: 200, Tol: 1e-6, ComputeVT: 1e-6}
	apps := make([]*Poisson, 4)
	rep, err := rt.Run(smallConfig(4, rt.AlgoCC), func(rank int) rt.App {
		a := NewPoisson(cfg)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	if !apps[0].Converged {
		t.Fatalf("CG did not converge: residual %g after %d iters", apps[0].Residual, apps[0].Iter)
	}
	// Identical blocks: solution satisfies A x = 1 locally.
	x := apps[0].X
	n := len(x)
	for i := 1; i+1 < n; i++ {
		r := 2*x[i] - x[i-1] - x[i+1]
		if math.Abs(r-1) > 1e-4 {
			t.Fatalf("residual check failed at %d: Ax=%g", i, r)
		}
	}
}

func TestMDEnergyStability(t *testing.T) {
	cfg := DefaultCoMDConfig()
	cfg.Steps = 200
	cfg.ComputeVT = 1e-6
	cfg.EnergyEvery = 10
	apps := make([]*MD, 4)
	_, err := rt.Run(smallConfig(4, rt.AlgoNative), func(rank int) rt.App {
		a := NewMD(cfg)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	e := apps[0].Energy
	if math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("energy diverged: %v", e)
	}
	for _, p := range apps[0].Pos {
		if math.IsNaN(p) {
			t.Fatal("positions diverged")
		}
	}
}

func TestSW4WaveStability(t *testing.T) {
	cfg := DefaultSW4Config()
	cfg.Steps = 300
	cfg.ComputeVT = 1e-6
	cfg.StabilityEvery = 50
	apps := make([]*SW4Mini, 4)
	_, err := rt.Run(smallConfig(4, rt.AlgoNative), func(rank int) rt.App {
		a := NewSW4Mini(cfg)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	// A linear wave with CFL < 1 must stay bounded near its initial
	// amplitude (1.0); growth indicates an unstable stencil or halo bug.
	if apps[0].MaxU > 1.5 {
		t.Fatalf("wave amplitude grew to %g (unstable)", apps[0].MaxU)
	}
	if apps[0].MaxU <= 0 {
		t.Fatal("wave vanished")
	}
}

func TestVASPEnergyTracked(t *testing.T) {
	cfg := DefaultVASPConfig()
	cfg.Iterations = 10
	cfg.ComputeVT = 1e-6
	apps := make([]*VASPMini, 8)
	_, err := rt.Run(smallConfig(8, rt.AlgoCC), func(rank int) rt.App {
		a := NewVASPMini(cfg)
		apps[rank] = a
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	if apps[0].Energy <= 0 {
		t.Fatalf("energy %g not positive", apps[0].Energy)
	}
	// All ranks see the same (allreduced) energy.
	for r, a := range apps {
		if a.Energy != apps[0].Energy {
			t.Fatalf("rank %d energy %g != rank 0 %g", r, a.Energy, apps[0].Energy)
		}
	}
}

// vaspRank is a VASPMini on a one-rank row, built without a runtime: the
// four named buffers Setup registers and a zero slab of SlabN elements where
// the first Step would draw one.
func vaspRank(cfg VASPConfig) *VASPMini {
	v := NewVASPMini(cfg)
	for _, id := range []string{"ata", "energy", "haloL", "haloR"} {
		v.bufs.Add(id, 8)
	}
	v.Slab = make([]complex128, v.cfg.SlabN)
	return v
}

// bufEntry is one named buffer of a hand-laid snapshot.
type bufEntry struct {
	ID   string
	Data []byte
}

// layBufs lays a buffer section out by hand: each buffer as given, in the
// order given, as its ID length word, the ID, its data length word and the
// data.
func layBufs(b []byte, bufs ...bufEntry) []byte {
	for _, e := range bufs {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(e.ID)))
		b = append(b, e.ID...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Data)))
		b = append(b, e.Data...)
	}
	return b
}

// entriesOf is a registry's buffers in ID order.
func entriesOf(b *rt.Buffers) []bufEntry {
	var sec bytes.Buffer
	b.SnapshotTo(&sec, nil)
	return splitBufs(sec.Bytes())
}

// vaspImage lays a VASP snapshot out by hand: the six header words, the
// slab's real parts, then its imaginary parts, then each buffer as given, in
// the order given.
func vaspImage(iter, phase uint64, energy float64, rng uint64, slab []complex128, bufs ...bufEntry) []byte {
	var b []byte
	for _, w := range []uint64{iter, phase, math.Float64bits(energy), rng, uint64(len(slab)), uint64(len(bufs))} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	for _, z := range slab {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(z)))
	}
	for _, z := range slab {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(z)))
	}
	return layBufs(b, bufs...)
}

// vaspBufs returns 8-byte buffers of the given IDs, in the order given.
func vaspBufs(ids ...string) []bufEntry {
	out := make([]bufEntry, len(ids))
	for i, id := range ids {
		out[i] = bufEntry{ID: id, Data: []byte{byte(i + 1), 2, 3, 4, 5, 6, 7, 8}}
	}
	return out
}

// TestVASPSnapshotLayout: SnapshotTo emits the documented fixed-width
// layout exactly, in one Write of its one allocation, every bit of the slab
// and the energy included, and Restore reads it back onto the same state.
// So a capture that ends the job, which keeps a one-Write snapshot
// (ckpt's TestExitCaptureAllocs), allocates once a rank.
func TestVASPSnapshotLayout(t *testing.T) {
	cfg := VASPConfig{Iterations: 10, SlabN: 8}
	v := vaspRank(cfg)
	parts := awkwardF64s(2*len(v.Slab) + 1)
	for i := range v.Slab {
		v.Slab[i] = complex(parts[2*i], parts[2*i+1])
	}
	v.Iter, v.Phase, v.Energy, v.rng.S = 7, 3, parts[len(parts)-1], 0xfeedface
	for _, e := range vaspBufs("ata", "energy", "haloL", "haloR") {
		copy(v.bufs.Get(e.ID), e.Data)
	}
	want := vaspImage(7, 3, v.Energy, 0xfeedface, v.Slab, vaspBufs("ata", "energy", "haloL", "haloR")...)
	var streamed writeSizes
	if err := v.SnapshotTo(&streamed); err != nil || !bytes.Equal(streamed.Bytes(), want) || len(streamed.sizes) != 1 {
		t.Fatalf("SnapshotTo: %d bytes in %d Writes (err %v), want the %d-byte layout in one",
			streamed.Len(), len(streamed.sizes), err, len(want))
	}
	snap := streamed.Bytes()
	back := vaspRank(cfg)
	if err := back.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if again, _ := snapshot(back); !bytes.Equal(again, snap) {
		t.Fatal("restore did not round-trip the snapshot")
	}
	if raceBuild() {
		t.Log("allocation check skipped under the race detector")
		return
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := v.SnapshotTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("SnapshotTo allocates %v times, want 1 (the layout)", allocs)
	}
}

// retiredVASPGob is the VASP snapshot as gob wrote it before the fixed-width
// layout, for a vaspRank of cfg: the same anonymous struct, field for field
// (only the buffer element type's name differs, in the case of its first
// letter).
func retiredVASPGob(t testing.TB, cfg VASPConfig) []byte {
	t.Helper()
	v := vaspRank(cfg)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Iter, Phase int
		Slab        []complex128
		Energy      float64
		Bufs        []bufEntry
		Rng         uint64
	}{v.Iter, v.Phase, v.Slab, v.Energy, entriesOf(&v.bufs), v.rng.S}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestVASPRestoreHostile: a snapshot that does not fit the rank, or whose
// lengths lie, is refused with a vasp: error naming what is wrong — never a
// panic, a stale or truncated slab, a phase Step has no case for, or a rank
// half overwritten — and a Step at such a phase fails instead of returning
// more work forever without an MPI call.
func TestVASPRestoreHostile(t *testing.T) {
	cfg := VASPConfig{Iterations: 10, SlabN: 8}
	slab := make([]complex128, cfg.SlabN)
	good := vaspImage(1, 2, 0.5, 9, slab, vaspBufs("ata", "energy", "haloL", "haloR")...)
	// poke returns good with the 8-byte word at off replaced by w.
	poke := func(off int, w uint64) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[off:], w)
		return b
	}
	firstBuf := vaspHeaderLen + 16*cfg.SlabN // ata's ID length word; its data length follows "ata"
	type hostile struct {
		name string
		data []byte
		want string
	}
	var cases []hostile
	for _, c := range []struct {
		name string
		edit func(*VASPMini)
		want string
	}{
		{"short slab", func(v *VASPMini) { v.Slab = v.Slab[:2] }, "slab"},
		{"long slab", func(v *VASPMini) { v.Slab = make([]complex128, 9) }, "slab"},
		{"phase past the cycle", func(v *VASPMini) { v.Phase = 9 }, "phase"},
		{"negative phase", func(v *VASPMini) { v.Phase = -1 }, "phase"},
		{"negative iteration", func(v *VASPMini) { v.Iter = -5 }, "iteration"},
		{"iteration past the run", func(v *VASPMini) { v.Iter = 11 }, "iteration"},
		{"missing buffer", func(v *VASPMini) {
			v.bufs = rt.Buffers{}
			for _, id := range []string{"energy", "haloL", "haloR"} {
				v.bufs.Add(id, 8)
			}
		}, "buffers"},
		{"extra buffer", func(v *VASPMini) { v.bufs.Add("zeta", 8) }, "buffers"},
		{"buffer of the wrong size", func(v *VASPMini) { v.bufs.Add("ata", 16) }, "size"},
	} {
		src := vaspRank(cfg)
		c.edit(src)
		snap, err := snapshot(src)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, hostile{c.name, snap, c.want})
	}
	for n := 0; n < len(good); n++ {
		cases = append(cases, hostile{fmt.Sprintf("truncated to %d bytes", n), good[:n], ""})
	}
	cases = append(cases,
		hostile{"slab count wraps 16*n", poke(32, 1<<60), "claims"},
		hostile{"slab count past the bytes", poke(32, uint64(len(good))), "claims"},
		hostile{"buffer count past the registry", poke(40, 1<<62), "buffers"},
		hostile{"ID length past the end", poke(firstBuf, 1<<62), "past the end"},
		hostile{"ID length one past the end", poke(firstBuf, uint64(len(good)-firstBuf-8+1)), "past the end"},
		hostile{"data length past the end", poke(firstBuf+8+3, 1<<62), "past the end"},
		hostile{"data length one short", poke(firstBuf+8+3, 7), "size"},
		hostile{"trailing byte", append(append([]byte(nil), good...), 0), "past its last buffer"},
		hostile{"unknown buffer", vaspImage(1, 2, 0.5, 9, slab, vaspBufs("ata", "energy", "haloL", "nope")...), "unknown"},
		hostile{"ata missing, energy twice", vaspImage(1, 2, 0.5, 9, slab, vaspBufs("energy", "energy", "haloL", "haloR")...), "strictly increase"},
		hostile{"buffers out of order", vaspImage(1, 2, 0.5, 9, slab, vaspBufs("energy", "ata", "haloL", "haloR")...), "strictly increase"},
		hostile{"the retired gob layout", retiredVASPGob(t, cfg), ""},
	)
	for _, c := range cases {
		dst := vaspRank(cfg)
		for _, id := range []string{"ata", "energy", "haloL", "haloR"} {
			for i, buf := 0, dst.bufs.Get(id); i < len(buf); i++ {
				buf[i] = 0x55
			}
		}
		before, _ := snapshot(dst)
		err := dst.Restore(c.data)
		if err == nil || !strings.HasPrefix(err.Error(), "vasp: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a vasp error about %q", c.name, err, c.want)
		}
		if after, _ := snapshot(dst); !bytes.Equal(after, before) {
			t.Errorf("%s: a refused snapshot changed the rank", c.name)
		}
	}

	if err := vaspRank(cfg).Restore(good); err != nil {
		t.Fatalf("the well-formed snapshot the cases edit is refused: %v", err)
	}
	done := vaspRank(cfg)
	done.Iter, done.Slab[7] = cfg.Iterations, complex(1, -1)
	snap, _ := snapshot(done)
	back := vaspRank(cfg)
	if err := back.Restore(snap); err != nil {
		t.Fatalf("a finished rank's snapshot refused: %v", err)
	}
	if again, _ := snapshot(back); !bytes.Equal(again, snap) {
		t.Fatal("restore did not round-trip a finished rank's snapshot")
	}

	lost := vaspRank(cfg)
	lost.Phase = 9
	if more, err := lost.Step(nil); more || err == nil || !strings.HasPrefix(err.Error(), "vasp: ") {
		t.Fatalf("Step at phase 9: more %v, err %v; want a vasp error and no more work", more, err)
	}
}

// slabProbe records, for the VASP rank it wraps, whether Setup left a slab
// and every slab the rank held after Restore and after each Step.
type slabProbe struct {
	*VASPMini
	setupSlab bool
	slabs     []*complex128
}

func (p *slabProbe) Setup(env *rt.Env) error {
	err := p.VASPMini.Setup(env)
	p.setupSlab = p.Slab != nil
	return err
}

func (p *slabProbe) Restore(data []byte) error {
	if err := p.VASPMini.Restore(data); err != nil {
		return err
	}
	p.slabs = append(p.slabs, &p.Slab[0])
	return nil
}

func (p *slabProbe) Step(env *rt.Env) (bool, error) {
	more, err := p.VASPMini.Step(env)
	p.slabs = append(p.slabs, &p.Slab[0])
	return more, err
}

// TestVASPRestartBuildsSlabOnce: Setup draws no slab — the constructor and
// Setup build nothing a snapshot carries — so a restarted rank allocates its
// slab once, in Restore, and keeps it; a fresh rank builds its slab on the
// first Step and keeps it. The restart ends where the uninterrupted run does.
func TestVASPRestartBuildsSlabOnce(t *testing.T) {
	cfg := VASPConfig{Iterations: 12, SlabN: 64, RowSize: 2, BlockBytes: 8, ComputeVT: 1e-6}
	probes := make([]*slabProbe, 4)
	factory := func(rank int) rt.App {
		probes[rank] = &slabProbe{VASPMini: NewVASPMini(cfg)}
		return probes[rank]
	}
	check := func(leg string) {
		t.Helper()
		for rank, p := range probes {
			switch {
			case p.setupSlab:
				t.Fatalf("%s: rank %d: Setup built a slab", leg, rank)
			case len(p.slabs) < 2:
				t.Fatalf("%s: rank %d: %d slabs recorded", leg, rank, len(p.slabs))
			}
			for i, s := range p.slabs {
				if s != p.slabs[0] {
					t.Fatalf("%s: rank %d: slab %d of %d is a new one", leg, rank, i+1, len(p.slabs))
				}
			}
		}
	}
	base, err := rt.Run(smallConfig(4, rt.AlgoCC), factory)
	if err != nil || !base.Completed {
		t.Fatalf("uninterrupted run: %v", err)
	}
	run := smallConfig(4, rt.AlgoCC)
	run.Checkpoint = &rt.CkptPlan{AtStep: 20, Mode: ckpt.ExitAfterCapture}
	rep, err := rt.Run(run, factory)
	if err != nil || rep.Image == nil {
		t.Fatalf("checkpoint leg: %v", err)
	}
	check("fresh")
	if rep, err = rt.Restart(smallConfig(4, rt.AlgoCC), rep.Image, factory); err != nil || !rep.Completed {
		t.Fatalf("restart leg: %v", err)
	}
	check("restarted")
	if rep.StateDigest != base.StateDigest {
		t.Fatalf("restart diverged: %.12s != %.12s", rep.StateDigest, base.StateDigest)
	}
}

// heapBytes returns the fewest heap bytes any of three calls of f allocated.
// Other goroutines of a test binary — the fuzzing engine's among them —
// allocate now and then, which one measurement would charge to f; a
// Restore that is refused or restores the same state costs the same every
// call.
func heapBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// checkpointRestartWorkload checkpoints a workload mid-run, restarts from
// the image, and compares against an uninterrupted run.
func checkpointRestartWorkload(t *testing.T, name string, algo string, scale float64) {
	t.Helper()
	factory, err := Factory(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	base, err := rt.Run(smallConfig(8, algo), factory)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	cfg := smallConfig(8, algo)
	cfg.Checkpoint = &rt.CkptPlan{AtVT: base.RuntimeVT / 2, Mode: ckpt.ExitAfterCapture}
	rep, err := rt.Run(cfg, factory)
	if err != nil {
		t.Fatalf("checkpoint leg: %v", err)
	}
	if rep.Image == nil {
		t.Fatal("no image")
	}
	cfg2 := smallConfig(8, algo)
	rep2, err := rt.Restart(cfg2, rep.Image, factory)
	if err != nil {
		t.Fatalf("restart leg: %v", err)
	}
	if !rep2.Completed {
		t.Fatal("restarted run did not complete")
	}
	// The two legs together must perform the remaining work: combined
	// collective counts bracket the baseline (the drain may add a few).
	combined := rep.Counters.CollCalls() + rep2.Counters.CollCalls()
	if combined < base.Counters.CollCalls() {
		t.Fatalf("work lost across restart: %d+%d < %d",
			rep.Counters.CollCalls(), rep2.Counters.CollCalls(), base.Counters.CollCalls())
	}
}

func TestCheckpointRestartEveryWorkloadCC(t *testing.T) {
	scales := map[string]float64{"vasp": 0.0005, "poisson": 0.05, "comd": 0.01, "lammps": 0.01, "sw4": 0.01}
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			checkpointRestartWorkload(t, name, rt.AlgoCC, scales[name])
		})
	}
}

func TestCheckpointRestartBlockingWorkloads2PC(t *testing.T) {
	// 2PC cannot run poisson (non-blocking collectives).
	for _, name := range []string{"vasp", "comd", "sw4"} {
		name := name
		t.Run(name, func(t *testing.T) {
			scale := map[string]float64{"vasp": 0.0005, "comd": 0.01, "sw4": 0.01}[name]
			checkpointRestartWorkload(t, name, rt.Algo2PC, scale)
		})
	}
}

func TestOSUBenchmarks(t *testing.T) {
	for _, nb := range []bool{false, true} {
		cfg := OSUConfig{Kind: netmodel.Bcast, Nonblocking: nb, Size: 4, Iterations: 50}
		rep, err := rt.Run(smallConfig(8, rt.AlgoCC), func(int) rt.App { return NewOSU(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		want := int64(8 * 50)
		if got := rep.Counters.CollCalls(); got < want {
			t.Fatalf("nb=%v: %d collective calls, want >= %d", nb, got, want)
		}
	}
}

func TestOSURejectsNonblockingUnder2PC(t *testing.T) {
	cfg := OSUConfig{Kind: netmodel.Allreduce, Nonblocking: true, Size: 4, Iterations: 5}
	if _, err := rt.Run(smallConfig(4, rt.Algo2PC), func(int) rt.App { return NewOSU(cfg) }); err == nil {
		t.Fatal("2PC accepted a non-blocking OSU benchmark")
	}
}

func TestOSUOverheadOrdering(t *testing.T) {
	// The headline result at micro-benchmark scale: native <= CC << 2PC for
	// small-message Bcast (Figure 5a's leftmost panels).
	run := func(algo string) float64 {
		cfg := OSUConfig{Kind: netmodel.Bcast, Size: 4, Iterations: 300}
		rep, err := rt.Run(smallConfig(16, algo), func(int) rt.App { return NewOSU(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		return rep.RuntimeVT
	}
	native, cc, twoPC := run(rt.AlgoNative), run(rt.AlgoCC), run(rt.Algo2PC)
	if cc < native {
		t.Fatalf("cc (%g) beat native (%g)", cc, native)
	}
	ccOver := (cc - native) / native
	pcOver := (twoPC - native) / native
	if ccOver > 0.10 {
		t.Fatalf("CC overhead %.1f%% too high for small bcast", ccOver*100)
	}
	if pcOver < 2*ccOver {
		t.Fatalf("2PC overhead %.1f%% should dwarf CC's %.1f%%", pcOver*100, ccOver*100)
	}
}

func TestFactoryErrors(t *testing.T) {
	if _, err := Factory("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !UsesNonblockingCollectives("poisson") || UsesNonblockingCollectives("vasp") {
		t.Fatal("non-blocking classification wrong")
	}
}

func TestOSUP2PLatency(t *testing.T) {
	cfg := OSUP2PConfig{Size: 8, Iterations: 40, Peer: 1}
	rep, err := rt.Run(smallConfig(4, rt.AlgoCC), func(int) rt.App { return NewOSUP2P(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.P2PSends < 80 { // 40 pings + 40 pongs
		t.Fatalf("sends %d", rep.Counters.P2PSends)
	}
	// Inter-node ping-pong must be slower than intra-node.
	interCfg := OSUP2PConfig{Size: 8, Iterations: 40, Peer: 3} // ppn=4? peer on same... use ranks 8, ppn 4 below
	rep2, err := rt.Run(smallConfig(8, rt.AlgoCC), func(int) rt.App {
		c := interCfg
		c.Peer = 4 // other node at ppn=4
		return NewOSUP2P(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	intra, err := rt.Run(smallConfig(8, rt.AlgoCC), func(int) rt.App { return NewOSUP2P(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RuntimeVT <= intra.RuntimeVT {
		t.Fatalf("inter-node (%g) should be slower than intra-node (%g)", rep2.RuntimeVT, intra.RuntimeVT)
	}
}

func TestOSUP2PBandwidth(t *testing.T) {
	cfg := OSUP2PConfig{Bandwidth: true, Size: 4096, Window: 16, Iterations: 10, Peer: 1}
	rep, err := rt.Run(smallConfig(4, rt.AlgoNative), func(int) rt.App { return NewOSUP2P(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	// 10 windows x 16 messages + 10 acks from the peer.
	if rep.Counters.P2PSends < 170 {
		t.Fatalf("sends %d", rep.Counters.P2PSends)
	}
	if rep.Counters.BytesSent < 10*16*4096 {
		t.Fatalf("bytes %d", rep.Counters.BytesSent)
	}
}

func TestOSUP2PCheckpointRestart(t *testing.T) {
	cfg := OSUP2PConfig{Size: 64, Iterations: 200, Peer: 1}
	base, err := rt.Run(smallConfig(4, rt.AlgoCC), func(int) rt.App { return NewOSUP2P(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	run := smallConfig(4, rt.AlgoCC)
	run.Checkpoint = &rt.CkptPlan{AtVT: base.RuntimeVT / 2, Mode: ckpt.ExitAfterCapture}
	rep, err := rt.Run(run, func(int) rt.App { return NewOSUP2P(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image == nil {
		t.Skip("finished before checkpoint")
	}
	rep2, err := rt.Restart(smallConfig(4, rt.AlgoCC), rep.Image, func(int) rt.App { return NewOSUP2P(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Completed {
		t.Fatal("restart incomplete")
	}
}

// --- Snapshot round-trip determinism --------------------------------------

// roundTripApps runs a short native job and returns the per-rank app
// instances with genuine mid-run state in them.
func roundTripApps(t *testing.T, ranks int, factory func(rank int) rt.App) []rt.App {
	t.Helper()
	held := make([]rt.App, ranks)
	if _, err := rt.Run(smallConfig(ranks, rt.AlgoNative), func(rank int) rt.App {
		held[rank] = factory(rank)
		return held[rank]
	}); err != nil {
		t.Fatal(err)
	}
	return held
}

// checkRoundTrip asserts encode -> decode -> re-encode is the identity for
// an app carrying real state. This catches serialization drift (and any
// non-canonical encoding, e.g. map-ordered buffers) without running the
// full conformance matrix.
func checkRoundTrip(t *testing.T, name string, app rt.App) {
	t.Helper()
	s1, err := snapshot(app)
	if err != nil {
		t.Fatalf("%s: snapshot: %v", name, err)
	}
	if err := app.Restore(s1); err != nil {
		t.Fatalf("%s: restore: %v", name, err)
	}
	s2, err := snapshot(app)
	if err != nil {
		t.Fatalf("%s: re-snapshot: %v", name, err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("%s: snapshot not canonical: %d vs %d bytes (or content drift)", name, len(s1), len(s2))
	}
	// Canonical also means stable across repeated encodes of the same state.
	s3, err := snapshot(app)
	if err != nil {
		t.Fatalf("%s: third snapshot: %v", name, err)
	}
	if !bytes.Equal(s2, s3) {
		t.Fatalf("%s: repeated snapshots of identical state differ", name)
	}
}

// TestSnapshotRoundTripEveryWorkload covers each registered workload.
func TestSnapshotRoundTripEveryWorkload(t *testing.T) {
	for _, name := range Names {
		factory, err := Factory(name, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		apps := roundTripApps(t, 4, factory)
		for rank, app := range apps {
			checkRoundTrip(t, fmt.Sprintf("%s/rank%d", name, rank), app)
		}
	}
}

// TestSnapshotRoundTripOSU covers the micro-benchmark apps too.
func TestSnapshotRoundTripOSU(t *testing.T) {
	osu := roundTripApps(t, 4, func(int) rt.App {
		return NewOSU(OSUConfig{Kind: netmodel.Allreduce, Size: 8, Iterations: 5})
	})
	p2p := roundTripApps(t, 4, func(int) rt.App {
		return NewOSUP2P(OSUP2PConfig{Size: 8, Iterations: 5, Peer: 1})
	})
	bw := roundTripApps(t, 4, func(int) rt.App {
		return NewOSUP2P(OSUP2PConfig{Bandwidth: true, Size: 64, Window: 4, Iterations: 5, Peer: 1})
	})
	for rank := 0; rank < 4; rank++ {
		checkRoundTrip(t, fmt.Sprintf("osu/rank%d", rank), osu[rank])
		checkRoundTrip(t, fmt.Sprintf("osup2p/rank%d", rank), p2p[rank])
		checkRoundTrip(t, fmt.Sprintf("osubw/rank%d", rank), bw[rank])
	}
}

// snapshot is a's SnapshotTo bytes as one slice.
func snapshot(a rt.StreamSnapshotter) ([]byte, error) {
	var b bytes.Buffer
	err := a.SnapshotTo(&b)
	return b.Bytes(), err
}

// --- Captured-image immutability ------------------------------------------

// snapshotProbe snapshots its app right after its at-th Step and keeps a
// private copy, so the test can tell after the run whether later Steps
// reached into bytes the app had already handed out.
type snapshotProbe struct {
	rt.App
	at, steps int
	snap      []byte // what the app handed out
	snapCopy  []byte // what those bytes were at the time
	err       error
}

func (p *snapshotProbe) Step(env *rt.Env) (bool, error) {
	more, err := p.App.Step(env)
	p.steps++
	if p.steps == p.at && p.err == nil {
		p.snap, p.err = snapshot(p.App)
		p.snapCopy = append([]byte(nil), p.snap...)
	}
	return more, err
}

// stepCounter counts its app's Steps, and how many came before its first
// snapshot, and keeps the bytes its app was restored from.
type stepCounter struct {
	rt.App
	steps, snappedAt int
	snapped          bool
	restored         []byte
}

func (c *stepCounter) Restore(data []byte) error {
	c.restored = data
	return c.App.Restore(data)
}

func (c *stepCounter) Step(env *rt.Env) (bool, error) {
	c.steps++
	return c.App.Step(env)
}

func (c *stepCounter) SnapshotTo(w io.Writer) error {
	if !c.snapped {
		c.snapped, c.snappedAt = true, c.steps
	}
	return c.App.SnapshotTo(w)
}

// TestCapturedImageImmutable: the checkpoint pipeline hashes a captured
// image once, seals that hash as each entry's RawSum and keeps the image, so
// the bytes a capture holds must never change afterwards. The captures most
// exposed to a change are a restarted rank's:
//   - its first continued capture writes into the bytes the rank was
//     restored from, which inflate filled straight from the store — unless
//     the app kept them as its live state, as the straggler does, and then it
//     must copy into fresh memory, also when the straggler's snapshot no
//     longer starts at their first byte but ends at their capacity's last;
//   - a capture that ends the job keeps a one-Write snapshot, the
//     straggler's live layout, as the image, and under Async the commit
//     reads it after the ranks are released.
//
// Every registered app is checkpointed into a store, restarted from it,
// captured again at the restarted leg's first step boundary and run to
// completion; that capture's bytes must still hash to what its sealed epoch
// records, some rank must have stepped after it, and no straggler rank's
// image may be the bytes it kept. Each straggler is also restarted into an
// Async capture that ends the job two steps in, whose kept images must hash
// to their sealed sums. Two hand-built stragglers add hot ranks whose State
// (160 KB) is large enough to be inflated by a direct read, one of them
// inserting elements as it goes. Poisson sits this out: under CC its capture
// lands at the end of the solve (Rank.Initiate never parks), so its
// restarted leg has no step left to run and takes no capture, and 2PC does
// not run it.
func TestCapturedImageImmutable(t *testing.T) {
	factories := map[string]func(rank int) rt.App{}
	for _, name := range append([]string{"straggler"}, Names...) {
		if name == "poisson" {
			continue
		}
		scale := 0.01
		if name == "straggler" {
			scale = 0.1 // 40 hot iterations: some remain after the restarted capture
		}
		f, err := Factory(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		factories[name] = f
	}
	factories["straggler-hot"] = func(rank int) rt.App {
		return NewStraggler(StragglerConfig{HotRanks: 2, ColdSteps: 3, HotIters: 12,
			StateElems: 300, HotStateElems: 20000}, rank)
	}
	factories["straggler-insert"] = func(rank int) rt.App {
		return NewStraggler(StragglerConfig{HotRanks: 2, ColdSteps: 3, HotIters: 12,
			StateElems: 300, HotStateElems: 20000, InsertEvery: 1}, rank)
	}
	for name, factory := range factories {
		const ranks = 4
		cfg := smallConfig(ranks, rt.AlgoCC)
		cfg.Checkpoint = &rt.CkptPlan{AtStep: 1, Mode: ckpt.ExitAfterCapture}
		first, err := rt.Run(cfg, factory)
		if err != nil || first.Completed || first.Checkpoint == nil {
			t.Fatalf("%s: the first leg did not checkpoint and exit (err %v)", name, err)
		}
		straggler := strings.HasPrefix(name, "straggler")
		for _, exit := range []bool{false, true} {
			if exit && !straggler {
				continue
			}
			leg := name
			cfg.Checkpoint = &rt.CkptPlan{AtVT: first.Image.CaptureVT, Store: first.Store}
			if exit {
				leg += "/exit"
				cfg.Checkpoint = &rt.CkptPlan{AtStep: 2, Mode: ckpt.ExitAfterCapture, Async: true, Store: first.Store}
			}
			counters := make([]*stepCounter, ranks)
			rep, err := rt.RestartFromStore(cfg, first.Store, first.Checkpoint.Epoch, func(rank int) rt.App {
				counters[rank] = &stepCounter{App: factory(rank)}
				return counters[rank]
			})
			if err != nil || rep.Completed == exit || rep.Checkpoint == nil || rep.Checkpoint.Epoch == first.Checkpoint.Epoch {
				t.Fatalf("%s: the restarted leg did not capture and run on (err %v)", leg, err)
			}
			if !exit && !slices.ContainsFunc(counters, func(c *stepCounter) bool { return c.steps > c.snappedAt }) {
				t.Fatalf("%s: no rank stepped after the restarted leg's capture", leg)
			}
			man, err := rep.Store.GetManifest(rep.Checkpoint.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			sums, err := ckpt.HashCapture(rep.Image)
			if err != nil {
				t.Fatal(err)
			}
			for r := range rep.Image.Images {
				if sums.Sums[r] != man.Shards[r].RawSum {
					t.Errorf("%s/rank%d: the captured bytes changed after their epoch sealed them (live state aliases the capture)", leg, r)
				}
			}
			if !straggler {
				continue
			}
			for r, c := range counters {
				img, st := rep.Image.Images[r].App, &c.App.(*Straggler).state
				if &st.buf[0] != &c.restored[0] {
					t.Fatalf("%s/rank%d: the straggler did not keep the bytes it was restored from", leg, r)
				}
				if kept := &img[0] == &st.buf[st.at]; kept != exit {
					t.Errorf("%s/rank%d: the image is the rank's live layout: %v, want %v", leg, r, kept, exit)
				}
			}
		}
	}
}

// writeSizes records the size of every Write it absorbs.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// refStragglerSnapshot is the straggler's snapshot as a per-element encoder
// lays it out: the five header words, Sum, then every State element's
// little-endian bits in order — the layout SnapshotTo must emit without
// encoding anything.
func refStragglerSnapshot(a *Straggler) []byte {
	var want bytes.Buffer
	for _, v := range []uint64{uint64(a.Iter), uint64(a.target), math.Float64bits(a.Acc), uint64(len(a.Sum)), uint64(a.state.Len())} {
		want.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	want.Write(a.Sum)
	for _, v := range stateOf(a) {
		want.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return want.Bytes()
}

// writeSlices records every slice it is handed, retaining it — as the
// capture does until SnapshotTo returns — to see what SnapshotTo passes.
type writeSlices struct{ got [][]byte }

func (w *writeSlices) Write(p []byte) (int, error) {
	w.got = append(w.got, p)
	return len(p), nil
}

// holeAt gives a fresh rank's n-element State a hole of room slots in front
// of element at, where insertions would have left it.
func holeAt(a *Straggler, n, room, at int) {
	off := 5*8 + len(a.Sum)
	a.state = holed{buf: make([]byte, off+8*(n+room)), off: off, lo: at, gap: 8 * room}
	a.Sum = a.state.head()[5*8:]
}

// layoutOf is where a holed State's bytes are: which buffer, and the offsets
// that place its head and each element in it.
type layoutOf struct {
	buf                 *byte
	at, off, lo, gap, n int
}

func layoutNow(h *holed) layoutOf {
	return layoutOf{&h.buf[0], h.at, h.off, h.lo, h.gap, h.Len()}
}

// elemAt is the offset of element i's slot in the buffer.
func (l layoutOf) elemAt(i int) int {
	if i >= l.lo {
		return l.at + l.off + 8*i + l.gap
	}
	return l.at + l.off + 8*i
}

// movedBy runs f on h and returns how many of the bytes h held before f it
// moved, by where each lands after f: the head if the layout's start moved,
// and each element whose slot did, an insertion at ins (−1: none) shifting
// the elements from ins on up by one. A new buffer moved everything.
func movedBy(h *holed, ins int, f func()) (moved int) {
	before := layoutNow(h)
	f()
	after := layoutNow(h)
	if before.buf != after.buf {
		return before.off + 8*before.n
	}
	if before.at != after.at {
		moved += before.off
	}
	for i := 0; i < before.n; i++ {
		j := i
		if ins >= 0 && i >= ins {
			j++
		}
		if before.elemAt(i) != after.elemAt(j) {
			moved += 8
		}
	}
	return moved
}

// packedEnds reports whether p, a straggler's one snapshot Write, is its own
// layout: a run of its State's buffer that starts at the buffer's first byte
// or ends at its capacity's last.
func packedEnds(p []byte, h *holed) bool {
	full := h.buf[:cap(h.buf)]
	return &p[0] == &h.buf[h.at] && (&p[0] == &full[0] || &p[len(p)-1] == &full[len(full)-1])
}

// TestStragglerSnapshotIsState: the rank holds its state as the bytes it
// checkpoints. SnapshotTo emits the per-element layout exactly — at State
// lengths from one element to past the old 32 KiB encoding block, with the
// hole at the front, in the middle, at the end and where a fresh rank puts
// it, every NaN payload, −0, subnormal and infinity bit for bit — and it
// does so by closing the hole toward the front and handing its writer the
// rank's own layout in one Write, without allocating: a run of the State's
// buffer that ends at its capacity's last byte (the hole closed, or a fresh
// rank's room in front) or starts at its first (a hole at the end stays).
func TestStragglerSnapshotIsState(t *testing.T) {
	for _, elems := range []int{1, 2, 3, 200, 5000, 8229} {
		for _, hole := range []string{"fresh", "front", "middle", "end"} {
			name := fmt.Sprintf("%d elements, hole %s", elems, hole)
			cfg := StragglerConfig{HotRanks: 1, HotIters: 5, StateElems: elems, InsertEvery: 1}
			a := NewStraggler(cfg, 0)
			a.initState()
			a.Iter, a.Acc = 3, 0.625
			if hole != "fresh" {
				holeAt(a, elems, 3, map[string]int{"front": 0, "middle": elems / 2, "end": elems}[hole])
				vs := awkwardF64s(elems)
				for i, v := range vs {
					a.state.set(i, v)
				}
				if !slices.Equal(f64Bits(stateOf(a)), f64Bits(vs)) {
					t.Fatalf("%s: set then get changed an element's bits", name)
				}
			}
			want := refStragglerSnapshot(a)
			var got writeSlices
			if err := a.SnapshotTo(&got); err != nil {
				t.Fatal(err)
			}
			if len(got.got) != 1 {
				t.Fatalf("%s: %d Writes, want 1 (the layout)", name, len(got.got))
			}
			if p := got.got[0]; !bytes.Equal(p, want) {
				t.Fatalf("%s: SnapshotTo wrote bytes that differ from the %d-byte layout", name, len(want))
			} else if !packedEnds(p, &a.state) || (a.state.gap > 0 && a.state.lo != elems) {
				t.Fatalf("%s: the Write is not the rank's own layout, packed to one end", name)
			}
			if err := a.SnapshotTo(&failingWriter{k: 1}); err != errKth {
				t.Fatalf("%s: writer failing on its Write: got %v", name, err)
			}
			snap, err := snapshot(a)
			if err != nil || !bytes.Equal(snap, want) {
				t.Fatalf("%s: Snapshot disagrees with the layout (err %v)", name, err)
			}
			b := NewStraggler(cfg, 0)
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if again, _ := snapshot(b); !bytes.Equal(again, want) {
				t.Fatalf("%s: restore did not round-trip the snapshot", name)
			}
		}
	}
	if raceBuild() {
		t.Log("allocation check skipped under the race detector")
		return
	}
	a := NewStraggler(StragglerConfig{HotRanks: 1, HotIters: 5, StateElems: 8229, InsertEvery: 1}, 0)
	a.initState()
	if allocs := testing.AllocsPerRun(10, func() {
		if err := a.SnapshotTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("SnapshotTo allocates %v times per call, want 0", allocs)
	}
}

// TestStragglerRestoreHoled: Restore keeps the snapshot's elements with the
// hole at their end, in the capacity past them, room for every insertion
// left, wherever the rank's next insertion goes — at the front, in the
// middle, before the last element, or, with no insertion left, nowhere —
// and that State snapshots
// back to exactly the restored bytes, awkward floats bit for bit. Every
// insertion left after the restore fills the hole without regrowing the
// State, and the elements end as the tail-shifting reference's do.
func TestStragglerRestoreHoled(t *testing.T) {
	const elems, iters = 200, 400
	cfg := StragglerConfig{HotRanks: 1, HotIters: iters, StateElems: elems, InsertEvery: 1}
	iterAt := func(at int) int { // an iteration whose insertion goes in front of element at
		for iter := 1; iter < iters; iter++ {
			if insertPos(iter, elems) == at {
				return iter
			}
		}
		t.Fatalf("no iteration inserts at %d", at)
		return 0
	}
	for _, c := range []struct {
		hole     string
		iter, at int
	}{
		{"front", iterAt(0), 0},
		{"middle", iterAt(elems / 2), elems / 2},
		{"before the last element", iterAt(elems - 2), elems - 2},
		{"end, no insertion left", iters, elems},
	} {
		src := NewStraggler(cfg, 0)
		src.initState()
		vs := awkwardF64s(elems)
		for i, v := range vs {
			src.state.set(i, v)
		}
		src.Iter, src.Acc = c.iter, 0.625
		snap, err := snapshot(src)
		if err != nil {
			t.Fatal(err)
		}
		a := NewStraggler(cfg, 0)
		if err := a.Restore(snap); err != nil {
			t.Fatalf("hole %s: %v", c.hole, err)
		}
		if room := max(iters-c.iter, 0); a.state.lo != elems || a.state.at != 0 || a.state.gap != max(cap(snap)-len(snap), 8*room) {
			t.Fatalf("next insertion %s: restored hole of %d bytes in front of element %d, want the capacity past the %d elements, at least %d slots",
				c.hole, a.state.gap, a.state.lo, elems, room)
		}
		if again, _ := snapshot(a); !bytes.Equal(again, snap) {
			t.Fatalf("hole %s: restore did not round-trip the snapshot", c.hole)
		}
		buf, ref := a.state.buf, vs
		for iter := c.iter; iter < iters; iter++ {
			a.Iter, a.Acc = iter, float64(iter)*0.375-1
			a.churn()
			ref = refChurn(ref, 1, iter, a.target, a.Acc)
			if len(a.state.buf) != len(buf) || &a.state.buf[0] != &buf[0] {
				t.Fatalf("hole %s: the insertion at iteration %d regrew the restored State", c.hole, iter)
			}
		}
		if !slices.Equal(f64Bits(stateOf(a)), f64Bits(ref)) {
			t.Fatalf("hole %s: State differs from the tail-shifting reference after the insertions", c.hole)
		}
	}
}

// stragglerImage lays a straggler snapshot out by hand: the five header words
// as given (Acc zero), then payload zero bytes.
func stragglerImage(iter, target, nSum, nState uint64, payload int) []byte {
	var b []byte
	for _, v := range []uint64{iter, target, 0, nSum, nState} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return append(b, make([]byte, payload)...)
}

// TestStragglerRestoreHostile: a snapshot whose header lies is refused with
// an error naming what is wrong, never a panic in Restore or in the Step
// after it.
func TestStragglerRestoreHostile(t *testing.T) {
	insert := StragglerConfig{HotRanks: 1, HotIters: 5, StateElems: 4, InsertEvery: 1}
	inPlace := StragglerConfig{HotRanks: 1, HotIters: 5, StateElems: 4}
	for _, c := range []struct {
		name string
		cfg  StragglerConfig
		data []byte
		want string
	}{
		{"truncated header", insert, make([]byte, 39), "truncated"},
		{"state count wraps 8*n", insert, stragglerImage(0, 5, 8, 1<<61+2, 8+16), "claims"},
		{"sum count past the bytes", insert, stragglerImage(0, 5, 1<<62, 4, 8+32), "claims"},
		{"payload one byte short", insert, stragglerImage(0, 5, 8, 4, 8+31), "claims"},
		{"empty state under InsertEvery", insert, stragglerImage(0, 5, 8, 0, 8), "empty state"},
		{"negative iteration", insert, stragglerImage(^uint64(0), 5, 8, 4, 8+32), "iteration"},
		{"iteration past target", insert, stragglerImage(6, 5, 8, 4, 8+32), "iteration"},
		{"state length without InsertEvery", inPlace, stragglerImage(0, 5, 8, 5, 8+40), "shape"},
		{"sum length", insert, stragglerImage(0, 5, 16, 4, 16+32), "shape"},
	} {
		err := NewStraggler(c.cfg, 0).Restore(c.data)
		if err == nil || !strings.HasPrefix(err.Error(), "straggler: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a straggler error about %q", c.name, err, c.want)
		}
	}
	if err := NewStraggler(insert, 0).Restore(stragglerImage(2, 5, 8, 6, 8+48)); err != nil {
		t.Fatalf("a well-formed grown snapshot refused: %v", err)
	}
}

// FuzzStragglerRestore: arbitrary bytes are refused with a straggler: error,
// keeping nothing and leaving the rank as it was, or restore a state that
// snapshots back to exactly those bytes — under insertion churn (any State
// length) and in place (the configured length only), from bytes with room
// for the hole past them (kept) and without (copied). Restore never
// allocates more than the input's length plus the hole it leaves for the
// insertions configured, past a 1 KiB floor for an error message.
func FuzzStragglerRestore(f *testing.F) {
	insert := StragglerConfig{HotRanks: 1, HotIters: 5, StateElems: 4, InsertEvery: 1}
	inPlace := StragglerConfig{HotRanks: 1, HotIters: 5, StateElems: 4}
	good := stragglerImage(2, 5, 8, 4, 8+32)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add(stragglerImage(2, 5, 8, 6, 8+48))
	f.Add(stragglerImage(0, 5, 8, 1<<61+2, 8+16))
	f.Add(stragglerImage(6, 5, 8, 4, 8+32))
	checkAllocs := !raceBuild()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range []StragglerConfig{insert, inPlace} {
			// Restore may keep what it is given, so it gets a copy and data
			// stays the reference.
			for _, room := range []int{0, 8 * cfg.HotIters} {
				in := append(make([]byte, 0, len(data)+room), data...)
				a := NewStraggler(cfg, 0)
				before, _ := snapshot(a)
				var err error
				got := heapBytes(func() { err = a.Restore(in) })
				if limit := uint64(len(data)) + 8*uint64(cfg.HotIters) + (1 << 10); checkAllocs && got > limit {
					t.Fatalf("Restore of %d bytes allocated %d (limit %d; err %v)", len(data), got, limit, err)
				}
				after, _ := snapshot(a)
				switch {
				case err != nil && !strings.HasPrefix(err.Error(), "straggler: "):
					t.Fatalf("refusal without the straggler: prefix: %v", err)
				case err != nil && !bytes.Equal(after, before):
					t.Fatalf("a refused snapshot changed the rank: %v", err)
				case err == nil && !bytes.Equal(after, data):
					t.Fatalf("restored %d bytes, snapshot back %d: not the same bytes", len(data), len(after))
				}
				if err != nil {
					scribble(in[:cap(in)])
					if again, _ := snapshot(a); !bytes.Equal(again, before) {
						t.Fatalf("a refused Restore kept its input: %v", err)
					}
				}
			}
		}
	})
}

// scribble inverts every byte of b, so a rank that kept a reference to b
// shows it in its next snapshot.
func scribble(b []byte) {
	for i := range b {
		b[i] = ^b[i]
	}
}

// TestStragglerOneElementInsertion: a hot rank whose State is one element has
// no interior to insert into; it inserts in front, runs to completion, and
// restarts from a mid-run checkpoint onto the uninterrupted run's digest.
func TestStragglerOneElementInsertion(t *testing.T) {
	factory := func(rank int) rt.App {
		return NewStraggler(StragglerConfig{HotRanks: 1, ColdSteps: 2, HotIters: 12, StateElems: 1, InsertEvery: 1}, rank)
	}
	base, err := rt.Run(smallConfig(2, rt.AlgoCC), factory)
	if err != nil || !base.Completed {
		t.Fatalf("uninterrupted run: %v", err)
	}
	cfg := smallConfig(2, rt.AlgoCC)
	cfg.Checkpoint = &rt.CkptPlan{AtStep: 5, Mode: ckpt.ExitAfterCapture}
	rep, err := rt.Run(cfg, factory)
	if err != nil || rep.Image == nil {
		t.Fatalf("checkpoint leg: %v (image %v)", err, rep != nil && rep.Image != nil)
	}
	rep2, err := rt.Restart(smallConfig(2, rt.AlgoCC), rep.Image, factory)
	if err != nil || !rep2.Completed {
		t.Fatalf("restart leg: %v", err)
	}
	if rep2.StateDigest != base.StateDigest {
		t.Fatalf("restart diverged: %.12s != %.12s", rep2.StateDigest, base.StateDigest)
	}
}

// capProbe records the size of the State's buffer, hole included, after
// every Step of the straggler it wraps.
type capProbe struct {
	*Straggler
	caps []int
}

func (p *capProbe) Step(env *rt.Env) (bool, error) {
	more, err := p.Straggler.Step(env)
	p.caps = append(p.caps, len(p.state.buf))
	return more, err
}

// raceBuild reports whether the test binary runs under the race detector,
// which allocates on its own account.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestStragglerRestartBuildsOnce: a restarted rank pays for its State at
// most once. Constructor and Restore together allocate nothing State-sized
// when the restored bytes have room for the hole past them — the rank keeps
// them — and about one State when they do not (no initial state the
// snapshot overwrites, no second slice for a grown snapshot). Under
// insertion churn the State's buffer never moves: a fresh rank and a
// restored one each hold a hole with room for every insertion they have
// left.
func TestStragglerRestartBuildsOnce(t *testing.T) {
	if raceBuild() {
		t.Log("allocation check skipped under the race detector")
	} else {
		const elems, grown = 2 << 20, 2<<20 + 20
		cfg := StragglerConfig{HotRanks: 1, HotIters: 40, StateElems: elems, InsertEvery: 1}
		snap := stragglerImage(20, 40, 8, grown, 8+8*grown)
		stateBytes := uint64(8 * grown)
		for _, c := range []struct {
			name  string
			data  []byte
			limit uint64
		}{
			{"kept", append(make([]byte, 0, len(snap)+8*20), snap...), 64 << 10},
			{"copied", snap[:len(snap):len(snap)], stateBytes*11/10 + 64<<10},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			a := NewStraggler(cfg, 0)
			err := a.Restore(c.data)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s: constructor + Restore: %d bytes allocated for a %d-byte State", c.name, got, stateBytes)
			if got > c.limit {
				t.Errorf("%s: constructor + Restore allocated %d bytes for a %d-byte State, want <= %d", c.name, got, stateBytes, c.limit)
			}
			if kept := &a.state.buf[0] == &c.data[0]; kept != (c.name == "kept") {
				t.Errorf("%s: the rank kept the restored bytes: %v", c.name, kept)
			}
		}
	}

	cfg := StragglerConfig{HotRanks: 2, ColdSteps: 2, HotIters: 24, StateElems: 100, HotStateElems: 1000, InsertEvery: 1}
	probes := make([]*capProbe, 4)
	factory := func(rank int) rt.App {
		probes[rank] = &capProbe{Straggler: NewStraggler(cfg, rank)}
		return probes[rank]
	}
	checkCaps := func(leg string) {
		t.Helper()
		for rank, p := range probes {
			if !p.hot {
				continue
			}
			if len(p.caps) < 2 {
				t.Fatalf("%s: hot rank %d ran %d steps", leg, rank, len(p.caps))
			}
			for i, c := range p.caps {
				if c != p.caps[0] {
					t.Fatalf("%s: hot rank %d: cap(State) %d after step %d, %d after the first", leg, rank, c, i+1, p.caps[0])
				}
			}
		}
	}
	run := smallConfig(4, rt.AlgoCC)
	run.Checkpoint = &rt.CkptPlan{AtStep: 8, Mode: ckpt.ExitAfterCapture}
	rep, err := rt.Run(run, factory)
	if err != nil || rep.Image == nil {
		t.Fatalf("checkpoint leg: %v", err)
	}
	checkCaps("fresh")
	if rep, err = rt.Restart(smallConfig(4, rt.AlgoCC), rep.Image, factory); err != nil || !rep.Completed {
		t.Fatalf("restart leg: %v", err)
	}
	checkCaps("restarted")
}

// TestStragglerDigestAllocs: a run to completion digests each rank's final
// state by streaming SnapshotTo into the hash, so on a 16 MiB hot rank the
// run allocates its State and little else. A digest over per-rank final
// snapshots held a second State-sized copy of every rank.
func TestStragglerDigestAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own account")
	}
	const elems = 2 << 20
	cfg := StragglerConfig{HotRanks: 1, ColdSteps: 2, HotIters: 4, StateElems: 100, HotStateElems: elems}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := rt.Run(smallConfig(2, rt.AlgoNative), func(rank int) rt.App { return NewStraggler(cfg, rank) })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.StateDigest == "" {
		t.Fatalf("run did not complete with a digest (completed %v, digest %q)", rep.Completed, rep.StateDigest)
	}
	got, stateBytes := after.TotalAlloc-before.TotalAlloc, uint64(8*elems)
	t.Logf("run to completion: %d bytes allocated for a %d-byte State", got, stateBytes)
	if limit := stateBytes + stateBytes/8; got > limit {
		t.Errorf("run to completion allocated %d bytes for a %d-byte State, want <= %d", got, stateBytes, limit)
	}
}

// snapCounter counts its app's SnapshotTo calls and how many allocations
// they made.
type snapCounter struct {
	rt.App
	calls  int
	allocs uint64
}

func (c *snapCounter) SnapshotTo(w io.Writer) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.App.SnapshotTo(w)
	runtime.ReadMemStats(&after)
	c.calls++
	c.allocs += after.Mallocs - before.Mallocs
	return err
}

// TestDigestSnapshotsOnce: the job digest of a run to completion snapshots
// each rank once, so a VASP rank lays its layout out once — one allocation,
// the app's own — where a digest that streamed each rank into a byte
// counter and then into the hash laid it out twice. The digest is the same
// bytes either way (the golden digests pin it). No rank is captured, so
// the digest is the only caller.
func TestDigestSnapshotsOnce(t *testing.T) {
	for _, name := range []string{"vasp", "straggler"} {
		factory, err := Factory(name, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		const ranks = 4
		counters := make([]*snapCounter, ranks)
		rep, err := rt.Run(smallConfig(ranks, rt.AlgoNative), func(rank int) rt.App {
			counters[rank] = &snapCounter{App: factory(rank)}
			return counters[rank]
		})
		if err != nil || !rep.Completed || rep.StateDigest == "" {
			t.Fatalf("%s: run did not complete with a digest (err %v)", name, err)
		}
		for r, c := range counters {
			if c.calls != 1 {
				t.Errorf("%s/rank%d: the digest snapshotted the rank %d times, want 1", name, r, c.calls)
			}
			if name == "vasp" && !raceBuild() && c.allocs != 1 {
				t.Errorf("%s/rank%d: the digest's snapshot allocated %d times, want 1 (the layout)", name, r, c.allocs)
			}
		}
	}
}

// stateOf returns a copy of the straggler's State elements in order, the
// hole left out.
func stateOf(a *Straggler) []float64 {
	out := make([]float64, a.state.Len())
	for i := range out {
		out[i] = a.state.get(i)
	}
	return out
}

// refInitState and refChurn are the straggler's State as it was before the
// State had a hole, kept verbatim: one slice, filled in order, and an
// insertion that appends an element and shifts the tail up by one. They are
// the reference TestStragglerHoleMatchesTail holds the holed State to and
// the yardstick BenchmarkStragglerChurn times it against.
func refInitState(rank, n int, insert bool) []float64 {
	state := make([]float64, n)
	if insert {
		s := uint64(rank)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		for i := range state {
			s, state[i] = stragglerNoise(s)
		}
	} else {
		for i := range state {
			state[i] = float64(rank) + float64(i%64)/64
		}
	}
	return state
}

func refChurn(state []float64, every, iter, target int, acc float64) []float64 {
	if every > 0 && iter > 0 && iter%every == 0 {
		pos := 0
		if len(state) > 1 {
			pos = (iter * 131) % (len(state) - 1)
		}
		_, v := stragglerNoise(uint64(iter)*0x9e3779b97f4a7c15 + 1)
		state = append(state, 0)
		copy(state[pos+1:], state[pos:])
		state[pos] = v
	}
	for k := 0; k < 8; k++ {
		i := (iter*8 + k) % len(state)
		state[i] = state[i]*0.5 + acc + float64(iter)/float64(target)
	}
	return state
}

// churnHot runs a hot straggler's churn for iterations [from, to), with an
// Acc that changes every iteration.
func churnHot(a *Straggler, from, to int) {
	for iter := from; iter < to; iter++ {
		a.Iter, a.Acc = iter, float64(iter)*0.375-1
		a.churn()
	}
}

// churnMoved is churnHot, returning how many bytes its insertions moved in
// all (movedBy).
func churnMoved(a *Straggler, from, to int) (moved int) {
	for iter := from; iter < to; iter++ {
		ins := -1
		if every := a.cfg.InsertEvery; every > 0 && iter > 0 && iter%every == 0 {
			ins = insertPos(iter, a.state.Len())
		}
		moved += movedBy(&a.state, ins, func() { churnHot(a, iter, iter+1) })
	}
	return moved
}

// TestStragglerHoleMatchesTail: the holed State holds, after every
// iteration, bit for bit the elements the tail-shifting State did, for
// States of one, two and three elements (the front insertion and the
// smallest interiors), for States whose insertion position wraps around many
// times, with and without insertion, with a snapshot after every iteration
// closing the hole toward the front, and with more insertions than the
// hole has room for (a snapshot whose target outruns HotIters), one of them
// from a State packed to the front with no room left. A fresh rank's room
// sits in front of its layout, and a rank's restored at any iteration has
// its hole at the end of the State; the restored rank round-trips its
// snapshot and ends where the uninterrupted rank does.
func TestStragglerHoleMatchesTail(t *testing.T) {
	const iters = 150
	for _, elems := range []int{1, 2, 3, 200, 5000} {
		for _, every := range []int{0, 1, 3} {
			cfg := StragglerConfig{HotRanks: 1, HotIters: iters, StateElems: elems, InsertEvery: every}
			name := fmt.Sprintf("%d elements, InsertEvery %d", elems, every)
			a := NewStraggler(cfg, 0)
			a.initState()
			ref := refInitState(0, elems, every > 0)
			if !slices.Equal(f64Bits(stateOf(a)), f64Bits(ref)) {
				t.Fatalf("%s: initial State differs from the reference fill", name)
			}
			if a.state.at != 8*a.room(0) || a.state.gap != 0 {
				t.Fatalf("%s: a fresh rank has %d bytes of room in front and a %d-byte hole, want %d and none", name, a.state.at, a.state.gap, 8*a.room(0))
			}
			snaps := make([][]byte, iters)
			for iter := 0; iter < iters; iter++ {
				churnHot(a, iter, iter+1)
				ref = refChurn(ref, every, iter, a.target, a.Acc)
				if !slices.Equal(f64Bits(stateOf(a)), f64Bits(ref)) {
					t.Fatalf("%s: State differs from the tail-shifting reference after iteration %d", name, iter)
				}
				a.Iter = iter + 1
				var err error
				if snaps[iter], err = snapshot(a); err != nil {
					t.Fatal(err)
				}
			}
			for _, at := range []int{0, 1, 2, iters / 2, iters - 2} {
				// Restore may keep the bytes it is given, so each rank gets
				// its own copy.
				b := NewStraggler(cfg, 0)
				if err := b.Restore(bytes.Clone(snaps[at])); err != nil {
					t.Fatalf("%s: restore at %d: %v", name, at+1, err)
				}
				if again, _ := snapshot(b); !bytes.Equal(again, snaps[at]) {
					t.Fatalf("%s: restore at %d did not round-trip the snapshot", name, at+1)
				}
				if b.state.at != 0 || b.state.lo != b.state.Len() {
					t.Fatalf("%s: restored at %d, %d bytes of room in front and the hole in front of element %d, not at the end of its %d elements",
						name, at+1, b.state.at, b.state.lo, b.state.Len())
				}
				churnHot(b, at+1, iters)
				b.Iter = iters
				if last, _ := snapshot(b); !bytes.Equal(last, snaps[iters-1]) {
					t.Fatalf("%s: restored at %d, ended elsewhere than the uninterrupted rank", name, at+1)
				}
			}

			// A snapshot whose target outruns HotIters: the hole is sized for
			// HotIters and grows for the rest.
			short := cfg
			short.HotIters = 4
			c := NewStraggler(short, 0)
			if err := c.Restore(bytes.Clone(snaps[0])); err != nil {
				t.Fatal(err)
			}
			churnHot(c, 1, iters)
			c.Iter = iters
			if last, _ := snapshot(c); !bytes.Equal(last, snaps[iters-1]) {
				t.Fatalf("%s: a hole that ran out of room lost elements", name)
			}
			// The same with a snapshot after every iteration: a State packed
			// to the front reopens its room in front as a hole, or grows
			// once that room is spent.
			d := NewStraggler(short, 0)
			if err := d.Restore(bytes.Clone(snaps[0])); err != nil {
				t.Fatal(err)
			}
			for iter := 1; iter < iters; iter++ {
				churnHot(d, iter, iter+1)
				d.Iter = iter + 1
				if got, _ := snapshot(d); !bytes.Equal(got, snaps[iter]) {
					t.Fatalf("%s: a hole that ran out of room, packed after every iteration, lost elements by iteration %d", name, iter)
				}
			}
		}
	}
}

// f64Bits returns the bit patterns of vs, so NaNs compare equal to
// themselves.
func f64Bits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestStragglerHoleMoves: on the benchmark's hot rank (2 Mi elements, one
// insertion a step), no insertion or snapshot of a fresh rank moves the
// State's tail, counted in bytes by where each lands (movedBy). A fresh
// rank's room rests in front of its layout, so its first insertion moves
// only the header words, Sum and the elements before its position; each
// later one moves the 130 elements between the slot after the last
// insertion and the next position, 131 further on; a snapshot closes the
// hole toward the front, moving at most off + 8·lo
// bytes, and the insertion after it reopens that room as a hole by moving
// the same head and elements back down. What is left: a restored rank's
// room is the capacity past the bytes it was restored from, so its first
// insertion moves the elements behind its position — the tail — once; its
// capture after that moves at most off + 8·lo bytes again.
func TestStragglerHoleMoves(t *testing.T) {
	const elems, iters = 2 << 20, 40
	cfg := StragglerConfig{HotRanks: 1, HotIters: iters, StateElems: elems, InsertEvery: 1}
	a := NewStraggler(cfg, 0)
	a.initState()
	off := a.state.off
	if moved, want := churnMoved(a, 0, 2), off+8*insertPos(1, elems); moved != want {
		t.Fatalf("a fresh rank's first insertion moved %d bytes, want %d (the head and the elements before it)", moved, want)
	}
	if moved, want := churnMoved(a, 2, 20), 8*130*18; moved != want {
		t.Fatalf("18 insertions moved %d bytes, want %d", moved, want)
	}
	capture := func(a *Straggler, iter int) []byte {
		t.Helper()
		a.Iter = iter
		lo := a.state.lo
		var got writeSlices
		if moved, most := movedBy(&a.state, -1, func() {
			if err := a.SnapshotTo(&got); err != nil {
				t.Fatal(err)
			}
		}), off+8*lo; moved == 0 || moved > most {
			t.Fatalf("a snapshot at iteration %d moved %d bytes, want at most %d (the head and the elements before the hole)", iter, moved, most)
		}
		if len(got.got) != 1 || !packedEnds(got.got[0], &a.state) {
			t.Fatalf("a snapshot at iteration %d is not one Write of the rank's layout, packed to one end", iter)
		}
		return bytes.Clone(got.got[0])
	}
	snap := capture(a, 20)
	if moved, want := churnMoved(a, 20, 21), off+8*insertPos(20, a.state.Len()); moved != want {
		t.Fatalf("the insertion after a snapshot moved %d bytes, want %d (the head and the elements before it)", moved, want)
	}

	b := NewStraggler(cfg, 0)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if want, moved := 8*(b.state.Len()-insertPos(20, b.state.Len())), churnMoved(b, 20, 21); moved != want {
		t.Fatalf("a restored rank's first insertion moved %d bytes, want %d (the tail behind it)", moved, want)
	}
	if moved, want := churnMoved(b, 21, iters-1), 8*130*(iters-22); moved != want {
		t.Fatalf("%d insertions after a restart moved %d bytes, want %d", iters-22, moved, want)
	}
	capture(b, iters-1)
}

// BenchmarkStragglerChurn times one hot step's State update on the
// benchmark's 16 MiB hot rank under one insertion a step: "hole" is the
// straggler's, "tail" the tail-shifting reference it replaced.
func BenchmarkStragglerChurn(b *testing.B) {
	const elems = 2 << 20
	b.Run("hole", func(b *testing.B) {
		a := NewStraggler(StragglerConfig{HotRanks: 1, HotIters: b.N + 1, StateElems: elems, InsertEvery: 1}, 0)
		a.initState()
		b.ResetTimer()
		churnHot(a, 1, b.N+1)
	})
	b.Run("tail", func(b *testing.B) {
		state := slices.Grow(refInitState(0, elems, true), b.N)
		b.ResetTimer()
		for iter := 1; iter <= b.N; iter++ {
			state = refChurn(state, 1, iter, b.N+1, float64(iter)*0.375-1)
		}
	})
}

// awkwardF64s returns n elements that a value-level copy could get wrong:
// NaNs with distinct payloads (quiet and signalling), both zeros, both
// infinities, subnormals, and noise.
func awkwardF64s(n int) []float64 {
	special := []uint64{
		0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, 0x7fffffffffffffff,
		0x8000000000000000, 0, 0x7ff0000000000000, 0xfff0000000000000,
		1, 0x800fffffffffffff, 0x000fffffffffffff,
	}
	vs := make([]float64, n)
	rng := splitmix64{S: uint64(n)}
	for i := range vs {
		if i%3 == 0 {
			vs[i] = math.Float64frombits(special[(i/3)%len(special)])
		} else {
			vs[i] = math.Float64frombits(rng.next())
		}
	}
	return vs
}

// failingWriter fails its k-th Write (1-based) with errKth.
type failingWriter struct{ k, calls int }

var errKth = errors.New("k-th write fails")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.calls++; w.calls == w.k {
		return 0, errKth
	}
	return len(p), nil
}

// BenchmarkFFTPlanRatio is a gate (b.Fatalf), not a measurement: the VASP
// proxy's step pair — a 64-point forward transform, then the inverse — must
// run at least 1.3 times as fast through fftPlan as through the reference
// plan it replaced, both timed in this process over the same vector. The
// planned pair reads 1.6–1.8x on the host it was written on. CI runs it by
// name with -benchtime=1x, without -race.
func BenchmarkFFTPlanRatio(b *testing.B) {
	const n, pairs = 64, 4096
	x := make([]complex128, n)
	rng := splitmix64{S: 64}
	fftTestVector(x, &rng, 0)
	fwd, inv := newFFTPlan(n, false), newFFTPlan(n, true)
	refFwd, refInv := newRefFFTPlan(n, false), newRefFFTPlan(n, true)
	pass := func(fwd, inv func([]complex128)) time.Duration {
		t0 := time.Now()
		for k := 0; k < pairs; k++ {
			fwd(x)
			inv(x)
		}
		return time.Since(t0)
	}
	perPair := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / pairs }
	for i := 0; i < b.N; i++ {
		// Fastest of 15 each, the two sides taking turns so that a busy
		// stretch on the host falls on both.
		ref, planned := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for try := 0; try < 15; try++ {
			ref = min(ref, pass(refFwd.transform, refInv.transform))
			planned = min(planned, pass(fwd.transform, inv.transform))
		}
		if 10*ref < 13*planned {
			b.Fatalf("a 64-point forward+inverse pair took %.0f ns planned, %.0f ns through the reference: want at least 1.3x faster",
				perPair(planned), perPair(ref))
		}
		b.ReportMetric(perPair(planned), "ns/pair")
		b.ReportMetric(perPair(ref), "ref-ns/pair")
		b.ReportMetric(float64(ref)/float64(planned), "x-ref")
	}
}
