package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mana/internal/mpi"
	"mana/internal/rt"
)

// StragglerConfig parametrizes the straggler proxy: a task-farm-shaped job
// with uneven rank progress. A small hot group (always including rank 0)
// iterates for the full run while the remaining cold ranks finish a short
// warmup and exit early — the common production shape where stragglers keep
// an allocation alive long after most ranks are done.
//
// It is the canonical low-churn workload for incremental checkpointing:
// once the cold ranks finish, their upper-half state is frozen, so periodic
// captures re-write only the hot ranks' shards and record every cold shard
// as a reference to the epoch that first wrote it.
type StragglerConfig struct {
	HotRanks   int // ranks that iterate the full run (>= 1; rank 0 is always hot)
	ColdSteps  int // iterations the cold ranks perform before finishing
	HotIters   int // iterations the hot ranks perform
	StateElems int // per-rank float64 payload (the checkpointed state)
	// HotStateElems, when positive, overrides StateElems for the hot ranks
	// (the incremental-checkpoint benchmarks keep hot shards small so the
	// image bytes live in the frozen cold ranks).
	HotStateElems int
	// InsertEvery, when positive, makes each hot rank INSERT one new element
	// at a deterministic interior position of State every InsertEvery
	// iterations (instead of only overwriting in place). Every element after
	// the insertion point shifts by eight bytes in the fixed-width snapshot,
	// so page-granular deltas see almost every trailing page dirty while
	// content-defined chunking realigns one chunk past the edit. The knob
	// also switches the initial State to a non-periodic xorshift fill —
	// a periodic pattern would starve the rolling hash of cut candidates —
	// and relaxes Restore's shape check (a restart's State length comes from
	// the snapshot, not the constructor).
	InsertEvery int
}

// DefaultStragglerConfig returns the registered workload's shape.
func DefaultStragglerConfig() StragglerConfig {
	return StragglerConfig{HotRanks: 2, ColdSteps: 4, HotIters: 400, StateElems: 256}
}

// Straggler is the straggler proxy application. Hot and cold ranks each
// allreduce over their own sub-communicator (created deterministically in
// Setup), so the early-finishing cold group never blocks the hot group's
// collectives.
type Straggler struct {
	cfg    StragglerConfig
	rank   int
	elems  int // the configured State length (StateElems or HotStateElems)
	target int // this rank's iteration count (HotIters or ColdSteps)
	hot    bool
	sub    int // sub-communicator vid (hot/cold split); not serialized

	Iter int
	Acc  float64
	// Sum is the named buffer "sum", the allreduce payload. Once the rank has
	// a State it is the layout's Sum bytes (state.buf[5*8:state.off]).
	Sum []byte
	// state is the rank's snapshot layout, the bulk per-rank State in it,
	// mutated only by hot ranks. It is empty until first use: a fresh rank
	// builds it in initState, and a restarted rank's Restore keeps the bytes
	// it was restored from as it.
	state holed
}

// holed is the straggler's snapshot layout held as live state: the five
// header words and Sum in buf[:off], then the State as a gap buffer of
// 8-byte slots, each element its little-endian IEEE-754 bits — the bytes the
// snapshot carries, so a capture hands the layout to its writer in one piece
// and a restore keeps the snapshot as it is. The elements, in order, are
// slots [0, lo) followed by slots [hi, len(slots)), and slots [lo, hi) are
// the hole, room for the insertions to come. The hole rests at the end, in
// the capacity past the snapshot's bytes. An insertion moves the hole to its
// position — copying only the elements between the two — and fills the
// hole's first slot; the first after the hole rested moves the tail behind
// the position, later ones land 131·InsertEvery elements apart (insertPos)
// and each moves about a thousand bytes where shifting the tail moved half
// the State. A snapshot moves the hole back to the end (packed).
type holed struct {
	buf         []byte
	off, lo, hi int
}

// newHoled allocates a layout of off bytes in front of n elements and a
// hole of room slots behind them.
func newHoled(off, n, room int) holed {
	return holed{buf: make([]byte, off+8*(n+room)), off: off, lo: n, hi: n + room}
}

// slots returns the State's slots, the hole among them.
func (h *holed) slots() []byte { return h.buf[h.off:] }

// Len is the number of elements, the hole not counted.
func (h *holed) Len() int { return len(h.slots())/8 - (h.hi - h.lo) }

// slot returns the 8 bytes of element i.
func (h *holed) slot(i int) []byte {
	if i >= h.lo {
		i += h.hi - h.lo
	}
	return h.buf[h.off+8*i : h.off+8*i+8]
}

// get and set read and write element i, for the few that a step touches.
func (h *holed) get(i int) float64    { return getF64(h.slot(i)) }
func (h *holed) set(i int, v float64) { putF64(h.slot(i), v) }

// insert makes v element pos, shifting every later element up by one.
func (h *holed) insert(pos int, v float64) {
	if h.lo == h.hi {
		h.grow()
	}
	s := h.slots()
	switch {
	case pos < h.lo:
		h.hi -= copy(s[8*(h.hi-(h.lo-pos)):8*h.hi], s[8*pos:8*h.lo]) / 8
	case pos > h.lo:
		h.hi += copy(s[8*h.lo:], s[8*h.hi:8*(h.hi+pos-h.lo)]) / 8
	}
	putF64(s[8*pos:], v)
	h.lo = pos + 1
}

// grow widens a full hole by a quarter of the elements, into a new layout.
// Straggler.room leaves room for every insertion a rank has left, so only a
// snapshot whose target outruns the configured HotIters gets here.
func (h *holed) grow() {
	room := h.Len()/4 + 1
	buf := make([]byte, len(h.buf)+8*room)
	copy(buf, h.buf[:h.off+8*h.lo])
	copy(buf[h.off+8*(h.hi+room):], h.buf[h.off+8*h.hi:])
	h.buf, h.hi = buf, h.hi+room
}

// packed moves the hole back to the end if an insertion moved it, and
// returns the layout without it: the snapshot's bytes.
func (h *holed) packed() []byte {
	s := h.slots()
	if end := len(s) / 8; h.hi < end {
		copy(s[8*h.lo:], s[8*h.hi:])
		h.lo, h.hi = h.lo+end-h.hi, end
	}
	return h.buf[:h.off+8*h.lo]
}

// NewStraggler creates the straggler app for one rank. It allocates no
// State (see initState).
func NewStraggler(cfg StragglerConfig, rank int) *Straggler {
	if cfg.HotRanks < 1 {
		cfg.HotRanks = 1
	}
	a := &Straggler{
		cfg:  cfg,
		rank: rank,
		hot:  rank < cfg.HotRanks,
		Sum:  make([]byte, 8),
	}
	if a.hot {
		a.target = cfg.HotIters
	} else {
		a.target = cfg.ColdSteps
	}
	if a.target < 1 {
		a.target = 1
	}
	a.elems = cfg.StateElems
	if a.hot && cfg.HotStateElems > 0 {
		a.elems = cfg.HotStateElems
	}
	if a.elems < 1 {
		a.elems = 1
	}
	return a
}

// initState builds the initial State if there is none yet: the layout
// Restore keeps, with Sum moved into it and the hole at the end. Step and
// SnapshotTo call it; Restore does not, because the snapshot carries every
// element the initial state would have held.
func (a *Straggler) initState() {
	if a.state.buf != nil {
		return
	}
	a.state = newHoled(5*8+len(a.Sum), a.elems, a.room(0))
	copy(a.state.buf[5*8:], a.Sum)
	a.Sum = a.state.buf[5*8 : a.state.off]
	run := a.state.slots()[:8*a.elems]
	if a.cfg.InsertEvery > 0 {
		s := uint64(a.rank)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		for j := 0; j < len(run); j += 8 {
			var v float64
			s, v = stragglerNoise(s)
			putF64(run[j:j+8], v)
		}
		return
	}
	// The in-place fill repeats every 64 elements: write one period, then
	// double it by copying.
	period := min(len(run), 8*64)
	for j := 0; j < period; j += 8 {
		putF64(run[j:j+8], float64(a.rank)+float64(j/8)/64)
	}
	for done := period; done < len(run); done *= 2 {
		copy(run[done:], run[:done])
	}
}

// room sizes the hole of a State from iteration iter on: room for every
// insertion the rank has left, so no insertion in Step reallocates. The
// count comes from the configured HotIters, never from a snapshot's target,
// so a snapshot's bytes size no more than the elements they hold.
func (a *Straggler) room(iter int) int {
	lo, hi, every := max(iter, 1), a.cfg.HotIters, a.cfg.InsertEvery
	if !a.hot || every <= 0 || lo >= hi {
		return 0
	}
	// Step inserts at every iteration in [lo, hi) that every divides.
	return (hi-1)/every - (lo-1)/every
}

// insertPos is where iteration iter inserts into a State of n elements: a
// pseudo-random interior position. A one-element State has no interior; its
// insertions go in front.
func insertPos(iter, n int) int {
	if n <= 1 {
		return 0
	}
	return (iter * 131) % (n - 1)
}

// stragglerNoise advances a xorshift64 state and returns it with a
// deterministic quasi-random value in [0, 1).
func stragglerNoise(s uint64) (uint64, float64) {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s, float64(s%100000) / 100000
}

func (a *Straggler) Name() string { return "straggler" }

func (a *Straggler) Setup(env *rt.Env) error {
	color := 1
	if env.Rank() < a.cfg.HotRanks {
		color = 0
	}
	a.sub = env.Split(rt.WorldVID, color, env.Rank())
	return nil
}

func (a *Straggler) Buffer(id string) []byte {
	if id == "sum" {
		return a.Sum
	}
	return nil
}

func (a *Straggler) Step(env *rt.Env) (bool, error) {
	// A restart from a checkpoint parked at the FINAL allreduce re-issues
	// the collective and then calls Step once more; the pre-advanced
	// counter says the program is over, and that call must do no work (the
	// uninterrupted run never consumes the final result either).
	if a.Iter >= a.target {
		return false, nil
	}
	a.initState()
	// Consume the previous iteration's allreduce result (per the App
	// contract, post-processing belongs to the step after the blocking
	// batch).
	if a.Iter > 0 {
		a.Acc = getF64(a.Sum) / float64(env.CommSize(a.sub))
	}
	a.churn()
	env.Compute(2e-6)
	putF64(a.Sum, a.Acc+a.state.get(a.Iter%a.state.Len()))
	// Program counter advances before the blocking collective.
	a.Iter++
	env.Allreduce(a.sub, mpi.OpSum, "sum")
	return a.Iter < a.target, nil
}

// churn advances the State by one iteration: only hot ranks churn their
// bulk payload, and only while iterating. Under InsertEvery the State first
// grows by one element at insertPos, shifting everything after it; then
// eight elements are overwritten in place.
func (a *Straggler) churn() {
	if !a.hot {
		return
	}
	if a.cfg.InsertEvery > 0 && a.Iter > 0 && a.Iter%a.cfg.InsertEvery == 0 {
		_, v := stragglerNoise(uint64(a.Iter)*0x9e3779b97f4a7c15 + 1)
		a.state.insert(insertPos(a.Iter, a.state.Len()), v)
		a.Sum = a.state.buf[5*8 : a.state.off] // a full hole grows into a new layout
	}
	n := a.state.Len()
	for k := 0; k < 8; k++ {
		i := (a.Iter*8 + k) % n
		a.state.set(i, a.state.get(i)*0.5+a.Acc+float64(a.Iter)/float64(a.target))
	}
}

// Snapshot layout: a fixed-width little-endian encoding, NOT gob. Gob's
// variable-width integers would shift every later byte when a counter
// crosses an encoding-width boundary, smearing a one-word change across the
// whole stream; the fixed layout keeps unchanged state byte-stable at page
// granularity, which is what makes the straggler the page-delta testbed — a
// hot rank's capture dirties only the header page and the pages its step
// loop actually touched, and a frozen cold rank's snapshot is bit-identical
// across epochs.
//
// Layout: 5 uint64 header words (Iter, target, Acc bits, len(Sum),
// len(State)), then Sum verbatim, then each State element as float64 bits.
// The rank holds its state as this layout (holed), so a snapshot costs no
// copy and a restore keeps the snapshot's bytes.

// snapshotLen is the byte length of that layout for nSum Sum bytes and
// nState State elements: what SnapshotTo writes and Restore requires.
func snapshotLen(nSum, nState int) int { return 5*8 + nSum + 8*nState }

// SnapshotTo implements rt.App: it writes the header words into the layout,
// moves the hole to the end if an insertion moved it, and hands the layout
// to w in one Write — no per-element encoding, no scratch.
func (a *Straggler) SnapshotTo(w io.Writer) error {
	a.initState()
	hdr := a.state.buf[:5*8]
	binary.LittleEndian.PutUint64(hdr[0:], uint64(a.Iter))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(a.target))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(a.Acc))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(a.Sum)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(a.state.Len()))
	_, err := w.Write(a.state.packed())
	return err
}

// Restore implements rt.App. It keeps data as the rank's layout, the hole in
// the capacity past it, and hands data back as its snapshot's one Write (the
// rt.App rule for an app that keeps data). Only when that capacity has no
// room for the hole does it copy data, once, into memory nothing zeroed
// first but the hole. A refused snapshot keeps nothing.
func (a *Straggler) Restore(data []byte) error {
	if len(data) < 5*8 {
		return fmt.Errorf("straggler: snapshot truncated (%d bytes)", len(data))
	}
	iter := int(binary.LittleEndian.Uint64(data[0:]))
	target := int(binary.LittleEndian.Uint64(data[8:]))
	acc := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	claimSum := binary.LittleEndian.Uint64(data[24:])
	claimState := binary.LittleEndian.Uint64(data[32:])
	rest := data[5*8:]
	// Bound both counts by the bytes present before multiplying: 8*nState
	// wraps for a claim near 2^61, which would pass the length check.
	if claimSum > uint64(len(rest)) || claimState > uint64(len(rest))/8 ||
		len(data) != snapshotLen(int(claimSum), int(claimState)) {
		return fmt.Errorf("straggler: snapshot claims %d+8*%d payload bytes, has %d",
			claimSum, claimState, len(rest))
	}
	nSum, nState := int(claimSum), int(claimState)
	// With insertion churn the captured State may be longer than the
	// configured one; the snapshot's length is authoritative.
	if nSum != len(a.Sum) || (nState != a.elems && a.cfg.InsertEvery == 0) {
		return fmt.Errorf("straggler: snapshot shape (%d sum, %d state) does not match this rank (%d, %d)",
			nSum, nState, len(a.Sum), a.elems)
	}
	if nState == 0 {
		return fmt.Errorf("straggler: snapshot holds an empty state (Step indexes at least one element)")
	}
	if iter < 0 || iter > target {
		return fmt.Errorf("straggler: snapshot iteration %d outside [0, %d]", iter, target)
	}
	a.Iter, a.Acc, a.target = iter, acc, target
	buf, hole := data, 8*a.room(iter)
	if cap(data)-len(data) >= hole {
		buf = data[:len(data)+hole]
	} else {
		buf = bytes.Join([][]byte{data, make([]byte, hole)}, nil)
	}
	off := 5*8 + nSum
	a.state = holed{buf: buf, off: off, lo: nState, hi: (len(buf) - off) / 8}
	a.Sum = buf[5*8 : off]
	return nil
}
