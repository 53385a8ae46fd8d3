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
	Sum  []byte // named buffer "sum": allreduce payload
	// state is the bulk per-rank State, mutated only by hot ranks. It is
	// empty until first use: a fresh rank builds it in initState, and a
	// restarted rank's Restore copies it in without building the initial one.
	state holed
	hdr   [5 * 8]byte // SnapshotTo's header, kept here so a capture allocates nothing
}

// holed is the State as a gap buffer of 8-byte slots, each element held as
// its little-endian IEEE-754 bits — the bytes the snapshot carries, so a
// capture hands them to its writer as they are and a restore copies them in,
// one memmove each way. The elements, in order, are slots [0, lo) followed by
// slots [hi, len(buf)/8), and slots [lo, hi) are the hole, room for the
// insertions to come. An insertion moves the hole to its position — copying
// only the elements between the two — and fills the hole's first slot.
// Successive insertions land 131·InsertEvery elements apart (insertPos), so
// each moves about a thousand bytes where shifting the tail moved half the
// State.
type holed struct {
	buf    []byte
	lo, hi int
}

// newHoled allocates n elements with a hole of room slots in front of
// element at, which is where the next insertion will go.
func newHoled(n, room, at int) holed {
	return holed{buf: make([]byte, 8*(n+room)), lo: at, hi: at + room}
}

// Len is the number of elements, the hole not counted.
func (h *holed) Len() int { return len(h.buf)/8 - (h.hi - h.lo) }

// slot returns the 8 bytes of element i.
func (h *holed) slot(i int) []byte {
	if i >= h.lo {
		i += h.hi - h.lo
	}
	return h.buf[8*i : 8*i+8]
}

// get and set read and write element i, for the few that a step touches.
func (h *holed) get(i int) float64    { return getF64(h.slot(i)) }
func (h *holed) set(i int, v float64) { putF64(h.slot(i), v) }

// halves returns the elements in order as the two runs either side of the
// hole, as their snapshot bytes; either may be empty.
func (h *holed) halves() (head, tail []byte) { return h.buf[:8*h.lo], h.buf[8*h.hi:] }

// insert makes v element pos, shifting every later element up by one.
func (h *holed) insert(pos int, v float64) {
	if h.lo == h.hi {
		h.grow()
	}
	switch {
	case pos < h.lo:
		h.hi -= copy(h.buf[8*(h.hi-(h.lo-pos)):8*h.hi], h.buf[8*pos:8*h.lo]) / 8
	case pos > h.lo:
		h.hi += copy(h.buf[8*h.lo:], h.buf[8*h.hi:8*(h.hi+pos-h.lo)]) / 8
	}
	putF64(h.buf[8*pos:], v)
	h.lo = pos + 1
}

// grow widens a full hole by a quarter of the elements. newState sizes the
// hole for every insertion a rank has left, so only a snapshot whose target
// outruns the configured HotIters gets here.
func (h *holed) grow() {
	room := h.Len()/4 + 1
	buf := make([]byte, len(h.buf)+8*room)
	copy(buf, h.buf[:8*h.lo])
	copy(buf[8*(h.hi+room):], h.buf[8*h.hi:])
	h.buf, h.hi = buf, h.hi+room
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

// initState builds the initial State if there is none yet. Step, Snapshot
// and SnapshotTo call it; Restore does not, because the snapshot carries
// every element the initial state would have held.
func (a *Straggler) initState() {
	if a.state.buf != nil {
		return
	}
	a.state = a.newState(a.elems, 0)
	head, tail := a.state.halves()
	if a.cfg.InsertEvery > 0 {
		s := uint64(a.rank)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		for _, run := range [2][]byte{head, tail} {
			for j := 0; j+8 <= len(run); j += 8 {
				var v float64
				s, v = stragglerNoise(s)
				putF64(run[j:j+8], v)
			}
		}
		return
	}
	// The in-place fill repeats every 64 elements: write one period of each
	// run, then double it by copying.
	rank, i := float64(a.rank), 0
	for _, run := range [2][]byte{head, tail} {
		period := min(len(run), 8*64)
		for j := 0; j < period; j, i = j+8, i+1 {
			putF64(run[j:j+8], rank+float64(i%64)/64)
		}
		for done := period; done < len(run); done *= 2 {
			copy(run[done:], run[:done])
		}
		i += (len(run) - period) / 8
	}
}

// newState allocates n State elements with room for every insertion the
// rank has left from iteration iter on, so no insertion in Step reallocates,
// and puts the hole where the first of them goes, so it moves no element.
// The count comes from the configured HotIters, never from a snapshot's
// target, so a snapshot's bytes size no more than the elements they hold.
func (a *Straggler) newState(n, iter int) holed {
	lo, hi, every := max(iter, 1), a.cfg.HotIters, a.cfg.InsertEvery
	if !a.hot || every <= 0 || lo >= hi {
		return newHoled(n, 0, n)
	}
	// Step inserts at every iteration in [lo, hi) that every divides; the
	// first is lo rounded up to a multiple of every.
	room := (hi-1)/every - (lo-1)/every
	return newHoled(n, room, insertPos((lo+every-1)/every*every, n))
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
// len(State)), then Sum verbatim, then each State element as float64 bits —
// the State's own bytes (holed), so the layout costs a copy and no more.

// snapshotLen is the byte length of that layout for nSum Sum bytes and
// nState State elements: what Snapshot reserves, SnapshotTo writes and
// Restore requires.
func snapshotLen(nSum, nState int) int { return 5*8 + nSum + 8*nState }

func (a *Straggler) Snapshot() ([]byte, error) {
	a.initState()
	var buf bytes.Buffer
	buf.Grow(snapshotLen(len(a.Sum), a.state.Len()))
	if err := a.SnapshotTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SnapshotTo implements rt.StreamSnapshotter: the header, Sum, then the
// State's runs either side of its hole, each handed to w as the rank holds
// it — no per-element encoding, no scratch. Produces exactly Snapshot's
// bytes.
func (a *Straggler) SnapshotTo(w io.Writer) error {
	a.initState()
	binary.LittleEndian.PutUint64(a.hdr[0:], uint64(a.Iter))
	binary.LittleEndian.PutUint64(a.hdr[8:], uint64(a.target))
	binary.LittleEndian.PutUint64(a.hdr[16:], math.Float64bits(a.Acc))
	binary.LittleEndian.PutUint64(a.hdr[24:], uint64(len(a.Sum)))
	binary.LittleEndian.PutUint64(a.hdr[32:], uint64(a.state.Len()))
	head, tail := a.state.halves()
	for _, p := range [...][]byte{a.hdr[:], a.Sum, head, tail} {
		if len(p) == 0 {
			continue
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

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
	a.state = a.newState(nState, iter)
	a.Iter, a.Acc, a.target = iter, acc, target
	copy(a.Sum, rest[:nSum])
	head, tail := a.state.halves()
	state := rest[nSum:]
	copy(tail, state[copy(head, state):])
	return nil
}
