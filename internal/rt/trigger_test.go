package rt

import (
	"strings"
	"testing"
	"time"

	"mana/internal/ckpt"
)

// TestAtStepTriggerDeterministic: the step-indexed trigger must raise the
// request at the identical point of rank 0's execution on every run, so the
// conformance sweep is reproducible.
func TestAtStepTriggerDeterministic(t *testing.T) {
	capture := func() *Report {
		cfg := testConfig(4, AlgoCC)
		cfg.Checkpoint = &CkptPlan{AtStep: 9, Mode: ckpt.ExitAfterCapture}
		rep, err := Run(cfg, func(int) App { return newRingApp(12) })
		if err != nil {
			t.Fatal(err)
		}
		if rep.Image == nil {
			t.Fatal("no checkpoint captured")
		}
		return rep
	}
	a, b := capture(), capture()
	// Virtual time is a pure function of the program, so the step-indexed
	// request must land at the identical virtual instant on every run. (The
	// capture point may differ: the drain frontier depends on where the
	// other ranks happened to be.)
	if a.Checkpoint.RequestVT != b.Checkpoint.RequestVT {
		t.Fatalf("request times differ: %g vs %g", a.Checkpoint.RequestVT, b.Checkpoint.RequestVT)
	}
	// Wherever the two captures landed, both must restart into the same
	// final state as an uninterrupted run.
	golden, _ := runToCompletion(t, testConfig(4, AlgoCC), 12)
	for i, rep := range []*Report{a, b} {
		accs := make([]*ringApp, 4)
		rep2, err := Restart(testConfig(4, AlgoCC), rep.Image, func(rank int) App {
			accs[rank] = newRingApp(12)
			return accs[rank]
		})
		if err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		if !rep2.Completed {
			t.Fatalf("restart %d incomplete", i)
		}
		if accs[0].Acc != golden {
			t.Fatalf("restart %d: acc %g != golden %g", i, accs[0].Acc, golden)
		}
	}
}

// TestRankStepsReported: completed runs report per-rank step counts.
func TestRankStepsReported(t *testing.T) {
	_, rep := runToCompletion(t, testConfig(4, AlgoCC), 6)
	if len(rep.RankSteps) != 4 {
		t.Fatalf("RankSteps has %d entries", len(rep.RankSteps))
	}
	for r, s := range rep.RankSteps {
		if s <= 0 {
			t.Fatalf("rank %d reported %d steps", r, s)
		}
	}
}

// TestStateDigestStable: two identical runs produce identical digests, and
// a checkpoint-restart cycle reproduces the uninterrupted digest.
func TestStateDigestStable(t *testing.T) {
	_, rep1 := runToCompletion(t, testConfig(4, AlgoCC), 8)
	_, rep2 := runToCompletion(t, testConfig(4, AlgoCC), 8)
	if rep1.StateDigest == "" || rep1.StateDigest != rep2.StateDigest {
		t.Fatalf("digests differ: %q vs %q", rep1.StateDigest, rep2.StateDigest)
	}

	cfg := testConfig(4, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtStep: 11, Mode: ckpt.ExitAfterCapture}
	rep, err := Run(cfg, func(int) App { return newRingApp(8) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image == nil {
		t.Fatal("no checkpoint captured")
	}
	if rep.StateDigest != "" {
		t.Fatal("terminated run must not claim a final-state digest")
	}
	rep3, err := Restart(testConfig(4, AlgoCC), rep.Image, func(int) App { return newRingApp(8) })
	if err != nil {
		t.Fatal(err)
	}
	if rep3.StateDigest != rep1.StateDigest {
		t.Fatalf("restart digest %q != golden %q", rep3.StateDigest, rep1.StateDigest)
	}
}

// failingApp errors in Step on one rank while the others keep communicating.
type failingApp struct {
	*ringApp
	failRank bool
}

func (f *failingApp) Step(env *Env) (bool, error) {
	if f.failRank && f.Iter >= 1 {
		return false, errTestBoom
	}
	return f.ringApp.Step(env)
}

var errTestBoom = &testError{"boom"}

type testError struct{ s string }

func (e *testError) Error() string { return e.s }

// TestRankFailureAbortsPeersFast: when one rank dies, peers blocked on it
// must be torn down promptly with the original error — not hang until the
// test -timeout. This is the failure mode that used to wedge the OSU
// ping-pong test for its full timeout.
func TestRankFailureAbortsPeersFast(t *testing.T) {
	cfg := testConfig(4, AlgoCC)
	cfg.StallTimeout = 500 * time.Millisecond // fallback only; abort should beat it
	start := time.Now()
	_, err := Run(cfg, func(rank int) App {
		return &failingApp{ringApp: newRingApp(50), failRank: rank == 2}
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run with a failing rank reported success")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error %q does not carry the rank failure", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("teardown took %v", elapsed)
	}
}

// TestWatchdogDiagnosesWedgedJob: an app that blocks forever on a receive
// nobody sends must be converted into a diagnostic error by the watchdog.
type wedgeApp struct{ ringApp }

func (wa *wedgeApp) Step(env *Env) (bool, error) {
	if env.Rank() == 0 {
		env.Irecv(WorldVID, 1, 99, "ring", 0, 8) // never sent
		env.WaitAll()
		return false, nil
	}
	env.Barrier(WorldVID)
	return false, nil
}

func TestWatchdogDiagnosesWedgedJob(t *testing.T) {
	cfg := testConfig(2, AlgoCC)
	cfg.StallTimeout = 200 * time.Millisecond
	_, err := Run(cfg, func(int) App {
		return &wedgeApp{*newRingApp(0)}
	})
	if err == nil {
		t.Fatal("wedged job reported success")
	}
	for _, want := range []string{"deadlock", "rank 0", "rank 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic missing %q: %v", want, err)
		}
	}
}
