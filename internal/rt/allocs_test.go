package rt

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

// allocApp repeats one communication step: an 8-byte Allreduce, an Alltoall
// of 64 bytes, or a ring exchange (Irecv, Send, WaitAll).
type allocApp struct {
	op    string
	iters int
	iter  int
	x     []byte // 8 B
	ata   []byte // 64 B
}

func (a *allocApp) Name() string         { return "alloc-test" }
func (a *allocApp) Setup(env *Env) error { return nil }
func (a *allocApp) Buffer(id string) []byte {
	if id == "ata" {
		return a.ata
	}
	return a.x
}
func (a *allocApp) SnapshotTo(w io.Writer) error {
	_, err := w.Write([]byte{byte(a.iter)})
	return err
}
func (a *allocApp) Restore([]byte) error { return nil }

func (a *allocApp) Step(env *Env) (bool, error) {
	a.iter++
	switch a.op {
	case "allreduce":
		env.Allreduce(WorldVID, mpi.OpSum, "x")
	case "alltoall":
		env.Alltoall(WorldVID, "ata")
	case "ring":
		n, me := env.Size(), env.Rank()
		env.Irecv(WorldVID, (me+n-1)%n, 5, "x", 0, 8)
		env.Send(WorldVID, (me+1)%n, 5, a.ata[:8])
		env.WaitAll()
	}
	return a.iter < a.iters, nil
}

// allocsPerCall runs the step loop at two lengths under CC with no
// checkpoint pending and returns the heap allocations each extra simulated
// call cost, so that everything a job allocates once (world, communicators,
// goroutines, the first slots and requests) cancels out.
func allocsPerCall(t *testing.T, op string, callsPerStep int) float64 {
	t.Helper()
	const ranks, short, long = 8, 200, 1200
	run := func(iters int) func() {
		return func() {
			_, err := Run(testConfig(ranks, AlgoCC), func(int) App {
				return &allocApp{op: op, iters: iters, x: make([]byte, 8), ata: make([]byte, 64)}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(3, run(short))
	full := testing.AllocsPerRun(3, run(long))
	return (full - base) / float64((long-short)*ranks*callsPerStep)
}

// TestCollectiveAllocs: a steady-state blocking collective through rt.Env
// under CC allocates nothing per call. On the parent commit the same loops
// cost 8.75 (Allreduce, 8 B) and 9.62 (Alltoall, 64 B) allocations per call.
func TestCollectiveAllocs(t *testing.T) {
	for _, op := range []string{"allreduce", "alltoall"} {
		if got := allocsPerCall(t, op, 1); got > 0.05 {
			t.Errorf("%s: %.2f allocations per call, want 0", op, got)
		}
	}
}

// TestP2PAllocs: one ring step (Irecv, Send, WaitAll) in steady state
// allocates nothing per call either (3.67 per call on the parent commit).
func TestP2PAllocs(t *testing.T) {
	if got := allocsPerCall(t, "ring", 3); got > 0.05 {
		t.Errorf("ring step: %.2f allocations per call, want 0", got)
	}
}

// TestRestartCaptureAllocs: restarting a job from a store and capturing it
// once, at the capture that ends the leg, allocates about one state for an
// app that keeps the bytes it was restored from, and about two for one that
// copies out of them, not three. The in-place app's capture keeps its
// one-Write snapshot; the copying app's capture writes into the bytes the
// rank was restored from, which are dead once Restore returns. (A fresh
// capture buffer read about 3.0x for the copying app; a capture that copies
// the in-place app's snapshot into fresh memory reads 2.16x.)
func TestRestartCaptureAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates on its own account")
			}
		}
	}
	const ranks, size = 2, 8 << 20
	for _, c := range []struct {
		name    string
		factory func(rank int) App
		limit   float64
	}{
		{"copying", func(rank int) App { return newBlobApp(rank, -1, size, 8) }, 2.4},
		{"in-place", func(int) App { return &keepApp{size: size, iters: 8, x: make([]byte, 8)} }, 1.2},
	} {
		cfg := testConfig(ranks, AlgoCC)
		cfg.Checkpoint = &CkptPlan{AtStep: 2, Mode: ckpt.ExitAfterCapture}
		first, err := Run(cfg, c.factory)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		second, err := RestartFromStore(cfg, first.Store, first.Checkpoint.Epoch, c.factory)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if second.Image == nil {
			t.Fatalf("%s: the restarted leg did not capture", c.name)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(ranks*size)
		t.Logf("%s: restart + capture allocated %.2fx the state", c.name, ratio)
		if ratio > c.limit {
			t.Errorf("%s: restart + capture allocated %.2fx the state, want <= %.1fx", c.name, ratio, c.limit)
		}
	}
}
