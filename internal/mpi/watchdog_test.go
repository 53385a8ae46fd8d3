package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mana/internal/netmodel"
)

func testWorld(n int) *World {
	return NewWorld(n, netmodel.New(netmodel.EthernetLike(), n))
}

// runRank runs f as a rank goroutine, recovering an AbortError the way the
// runtime does, and reports the recovered error (nil if f returned).
func runRank(wg *sync.WaitGroup, out *error, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				if ab, ok := p.(AbortError); ok {
					*out = ab.Err
					return
				}
				panic(p)
			}
		}()
		f()
	}()
}

// TestWatchdogConvertsDeadlockToError: a receive whose matching send never
// happens must be diagnosed and aborted by the watchdog, not block forever.
func TestWatchdogConvertsDeadlockToError(t *testing.T) {
	w := testWorld(2)
	stop := w.StartWatchdog(150*time.Millisecond, func() string { return "extra-state" })
	defer stop()

	var errs [2]error
	var wg sync.WaitGroup
	runRank(&wg, &errs[0], func() {
		buf := make([]byte, 8)
		w.WorldComm(0).Recv(1, 7, buf) // rank 1 never sends
	})
	runRank(&wg, &errs[1], func() {
		w.Proc(1).SetWaitSite("idle-forever")
		w.Proc(1).WaitUntil(func() bool { return false })
	})
	wg.Wait()

	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d was not aborted", r)
		}
	}
	msg := errs[0].Error()
	for _, want := range []string{"deadlock", "rank 0", "request-wait", "idle-forever", "extra-state", "posted=1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}

// TestWatchdogIgnoresHealthyProgress: a job that keeps communicating must
// never be aborted, even when individual ranks block briefly.
func TestWatchdogIgnoresHealthyProgress(t *testing.T) {
	w := testWorld(2)
	stop := w.StartWatchdog(100*time.Millisecond, nil)
	defer stop()

	const rounds = 15 // 15 x 20ms of host idling spans several stall checks
	var errs [2]error
	var wg sync.WaitGroup
	runRank(&wg, &errs[0], func() {
		c := w.WorldComm(0)
		buf := make([]byte, 1)
		for i := 0; i < rounds; i++ {
			c.Send(1, 3, []byte{1})
			c.Recv(1, 4, buf)
			time.Sleep(20 * time.Millisecond) // host-idle, but sim-active
		}
	})
	runRank(&wg, &errs[1], func() {
		c := w.WorldComm(1)
		buf := make([]byte, 1)
		for i := 0; i < rounds; i++ {
			c.Recv(0, 3, buf)
			c.Send(0, 4, []byte{1})
		}
	})
	wg.Wait()

	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("healthy job aborted: %v / %v", errs[0], errs[1])
	}
	if err := w.AbortErr(); err != nil {
		t.Fatalf("world aborted: %v", err)
	}
}

// TestAbortWakesCollective: ranks blocked inside a collective must observe
// an abort instead of waiting for a member that will never arrive.
func TestAbortWakesCollective(t *testing.T) {
	w := testWorld(2)
	var errs [2]error
	var wg sync.WaitGroup
	runRank(&wg, &errs[0], func() {
		w.WorldComm(0).Collective(netmodel.Barrier, 0, OpSum, nil, nil) // rank 1 never joins
	})
	time.Sleep(50 * time.Millisecond)
	boom := fmt.Errorf("rank 1 exploded")
	w.Abort(boom)
	wg.Wait()

	if !errors.Is(errs[0], boom) {
		t.Fatalf("rank 0 error = %v, want %v", errs[0], boom)
	}
}

// TestAbortFirstWins: only the first abort's error is retained.
func TestAbortFirstWins(t *testing.T) {
	w := testWorld(1)
	first := fmt.Errorf("first")
	if !w.Abort(first) {
		t.Fatal("first abort rejected")
	}
	if w.Abort(fmt.Errorf("second")) {
		t.Fatal("second abort won")
	}
	if got := w.AbortErr(); !errors.Is(got, first) {
		t.Fatalf("AbortErr = %v, want first", got)
	}
}

// TestOnAbortHookAfterAbort: registering a hook on an already-aborted world
// must run it immediately (the coordinator may attach late).
func TestOnAbortHookAfterAbort(t *testing.T) {
	w := testWorld(1)
	w.Abort(fmt.Errorf("gone"))
	ran := false
	w.OnAbort(func() { ran = true })
	if !ran {
		t.Fatal("late hook not run")
	}
}
