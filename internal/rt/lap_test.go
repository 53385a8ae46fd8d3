package rt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

// lapApp makes ranks lap each other on one communicator so that many
// collective instances are live at once. On the world communicator the first
// lapIters iterations alternate Bcast and Scatter from root 0, the next
// lapIters alternate Reduce and Gather to the last rank; the last rank is
// held back (on the host, through lapGate) until rank 0 is lapLead instances
// ahead, so the Bcast/Scatter root and then the Reduce/Gather leaves run that
// far in front of the slowest member. Ranks 0-3 interleave, on a second
// communicator that overlaps the first, a synchronizing Allreduce, an
// Iallreduce and an Ibarrier in turn.
type lapApp struct {
	gate *lapGate // nil on a restarted run: the laps are already in the image

	Iter  int
	Phase int
	Acc   float64
	Bufs  map[string][]byte

	sub   int       // vid of the {0,1,2,3} communicator, -1 elsewhere
	exits []float64 // virtual time after each world collective; not part of the state
}

const (
	lapIters = 12 // per half
	lapLead  = 8
	lapRanks = 6
)

// lapGate publishes how many world collectives rank 0 has returned from.
type lapGate struct{ done0 atomic.Int64 }

// wait holds the caller on the host until rank 0 has returned from at least
// need world collectives, or a checkpoint request wants every rank to drain.
func (g *lapGate) wait(env *Env, need int) {
	if g == nil {
		return
	}
	if need > 2*lapIters {
		need = 2 * lapIters
	}
	for g.done0.Load() < int64(need) && !env.CheckpointPending() {
		runtime.Gosched()
	}
}

func newLapApp(g *lapGate) *lapApp {
	a := &lapApp{gate: g, Bufs: map[string][]byte{}}
	for id, n := range map[string]int{"a": 8, "sc": 8 * lapRanks, "ga": 8 * lapRanks, "b": 8, "bo": 8} {
		a.Bufs[id] = make([]byte, n)
	}
	return a
}

func (a *lapApp) Name() string            { return "lap-test" }
func (a *lapApp) Buffer(id string) []byte { return a.Bufs[id] }

func (a *lapApp) Setup(env *Env) error {
	color := -1
	if env.Rank() < 4 {
		color = 0
	}
	a.sub = env.Split(WorldVID, color, env.Rank())
	return nil
}

func putF(b []byte, x float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(x)) }
func getF(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func (a *lapApp) Step(env *Env) (bool, error) {
	me, i := env.Rank(), a.Iter
	slow := lapRanks - 1
	switch a.Phase {
	case 0: // one rooted collective on the world communicator
		env.Compute(float64(me+1) * 1e-6)
		switch {
		case me == slow:
			a.gate.wait(env, i+lapLead)
		case me != 0 && i < lapIters:
			// The root goes first: under Env.Scatter only the root knows
			// the block size, and the instance is sized by its creator.
			a.gate.wait(env, i+1)
		case me != 0:
			// Nobody runs ahead of rank 0, so the targets a request from
			// rank 0 installs leave the laggard work to do before it parks.
			a.gate.wait(env, i)
		}
		putF(a.Bufs["a"], float64(me*100+i))
		a.Phase = 1
		switch {
		case i < lapIters && i%2 == 0:
			env.Bcast(WorldVID, 0, "a")
		case i < lapIters:
			for r := 0; r < lapRanks; r++ {
				putF(a.Bufs["sc"][8*r:], float64(1000*i+r))
			}
			env.Scatter(WorldVID, 0, "sc", "a")
		case i%2 == 0:
			env.Reduce(WorldVID, slow, mpi.OpSum, "a")
		default:
			env.Gather(WorldVID, slow, "a", "ga")
		}
	case 1: // consume it; then one instance on the overlapping communicator
		a.exits = append(a.exits, env.Now())
		if me == 0 && a.gate != nil {
			a.gate.done0.Store(int64(i + 1))
		}
		a.Acc += getF(a.Bufs["a"])
		if me == slow && i >= lapIters && i%2 == 1 {
			for r := 0; r < lapRanks; r++ {
				a.Acc += getF(a.Bufs["ga"][8*r:]) * 1e-3
			}
		}
		a.Phase = 2
		if a.sub < 0 {
			break
		}
		putF(a.Bufs["b"], a.Acc+float64(me))
		switch i % 3 {
		case 0:
			env.Allreduce(a.sub, mpi.OpSum, "b")
		case 1:
			env.Iallreduce(a.sub, mpi.OpMax, "b", "bo")
		case 2:
			env.Ibarrier(a.sub)
		}
	case 2: // complete the non-blocking instance
		a.Phase = 3
		if a.sub >= 0 && i%3 != 0 {
			env.WaitAll()
		}
	case 3:
		if a.sub >= 0 {
			switch i % 3 {
			case 0:
				a.Acc = getF(a.Bufs["b"]) / 4
			case 1:
				a.Acc = getF(a.Bufs["bo"])
			}
		}
		a.Phase = 0
		a.Iter++
	}
	return a.Iter < 2*lapIters, nil
}

// lapBufIDs fixes the order the buffers are snapshotted in.
var lapBufIDs = []string{"a", "b", "bo", "ga", "sc"}

// SnapshotTo writes a fixed-width layout, not gob: gob numbers types
// process-wide in first-use order, so the digest pinned below would depend
// on which tests ran before.
func (a *lapApp) SnapshotTo(w io.Writer) error {
	out := binary.LittleEndian.AppendUint64(nil, uint64(a.Iter))
	out = binary.LittleEndian.AppendUint64(out, uint64(a.Phase))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(a.Acc))
	for _, id := range lapBufIDs {
		out = append(out, a.Bufs[id]...)
	}
	_, err := w.Write(out)
	return err
}

func (a *lapApp) Restore(data []byte) error {
	a.Iter = int(binary.LittleEndian.Uint64(data))
	a.Phase = int(binary.LittleEndian.Uint64(data[8:]))
	a.Acc = math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	data = data[24:]
	for _, id := range lapBufIDs {
		data = data[copy(a.Bufs[id], data):]
	}
	return nil
}

// runLap runs the lapping program and returns the report with a hash of
// every rank's per-collective exit times.
func runLap(t *testing.T, cfg Config, gated bool) (*Report, string) {
	t.Helper()
	var gate *lapGate
	if gated {
		gate = &lapGate{}
	}
	apps := make([]*lapApp, cfg.Ranks)
	rep, err := Run(cfg, func(rank int) App {
		apps[rank] = newLapApp(gate)
		return apps[rank]
	})
	if err != nil {
		t.Fatalf("lap run (%s): %v", cfg.Algorithm, err)
	}
	h := fnv.New64a()
	for _, a := range apps {
		for _, vt := range a.exits {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(vt))
			h.Write(b[:])
		}
	}
	return rep, fmt.Sprintf("%016x", h.Sum64())
}

func lapConfig(algo string) Config {
	cfg := testConfig(lapRanks, algo)
	cfg.PPN = 3
	return cfg
}

// TestSlotReuseUnderLapping: with up to lapLead+ instances live on one
// communicator and a second communicator interleaving synchronizing and
// non-blocking instances, results, every rank's exit times and the counters
// equal what the commit before per-communicator slot recycling produced.
func TestSlotReuseUnderLapping(t *testing.T) {
	want := map[string]string{
		AlgoNative: "3f3838482a6d0f4a 84a2f07a099cf58e 58d9a63ea26da919 {182 64 0 0 0 64 1520 0 [32 36 36 64 36 6 0 36 0 0 0 0 0 0 0 0] 0 0 0 0 0}",
		AlgoCC:     "3f38587e80c05819 122334cc84843c09 58d9a63ea26da919 {182 64 0 0 0 64 1520 0 [32 36 36 64 36 6 0 36 0 0 0 0 0 0 0 0] 240 0 0 0 0}",
	}
	for _, algo := range []string{AlgoNative, AlgoCC} {
		rep, exits := runLap(t, lapConfig(algo), true)
		got := fmt.Sprintf("%016x %s %.16s %v", math.Float64bits(rep.RuntimeVT), exits, rep.StateDigest, rep.Counters)
		if got != want[algo] {
			t.Errorf("%s:\n got  %s\n want %s", algo, got, want[algo])
		}
	}
}

// TestCheckpointMidLap lands a checkpoint request while the slowest rank is
// lapLead instances behind, in each half of the program: the drain runs the
// laggard through instances its peers registered long ago, the ranks park on
// descriptors built only now that a request is pending, and the restarted job
// ends in the uninterrupted run's state.
func TestCheckpointMidLap(t *testing.T) {
	ref, _ := runLap(t, lapConfig(AlgoCC), true)
	for _, atStep := range []int{4 * 9, 4*(lapIters+6) + 1} {
		cfg := lapConfig(AlgoCC)
		cfg.Checkpoint = &CkptPlan{AtStep: atStep, Mode: ckpt.ExitAfterCapture}
		rep, _ := runLap(t, cfg, true)
		if rep.Completed || rep.Image == nil {
			t.Fatalf("AtStep %d: no checkpoint-and-exit (completed=%v)", atStep, rep.Completed)
		}
		behind := 0
		for _, ri := range rep.Image.Images {
			if ri.Desc.Kind == ckpt.ParkPreCollective && ri.Desc.Coll == nil {
				t.Fatalf("AtStep %d: rank %d parked pre-collective without a descriptor", atStep, ri.Rank)
			}
			if ri.Desc.Kind == ckpt.ParkPreCollective {
				behind++
			}
		}
		if behind == 0 {
			t.Fatalf("AtStep %d: no rank parked at a collective wrapper", atStep)
		}
		apps := make([]*lapApp, lapRanks)
		fin, err := Restart(lapConfig(AlgoCC), rep.Image, func(rank int) App {
			apps[rank] = newLapApp(nil)
			return apps[rank]
		})
		if err != nil {
			t.Fatalf("AtStep %d: restart: %v", atStep, err)
		}
		if fin.StateDigest != ref.StateDigest || fin.StateDigest == "" {
			t.Errorf("AtStep %d: restart digest %.16s, uninterrupted %.16s", atStep, fin.StateDigest, ref.StateDigest)
		}
	}
}
