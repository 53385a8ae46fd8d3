package mpi

import (
	"fmt"
	"strings"
	"time"
)

// AbortError is the panic payload thrown out of blocked simulator calls when
// the world is aborted (by the deadlock watchdog or by a failed peer rank).
// The runtime recovers it at the top of each rank goroutine; applications
// never see it. It is the moral equivalent of MPI_Abort tearing down a job.
type AbortError struct{ Err error }

func (a AbortError) Error() string { return a.Err.Error() }
func (a AbortError) Unwrap() error { return a.Err }

// NoteActivity bumps the world's progress counter. Every event that can
// unblock a rank counts as activity: message delivery, request completion,
// collective arrivals, park/unpark transitions, checkpoint captures. The
// deadlock watchdog declares the job wedged only when this counter stops
// moving for a full stall window — in a single-process simulation no external
// event can revive a world whose ranks have all stopped producing activity.
func (w *World) NoteActivity() { w.activity.Add(1) }

// Abort tears the world down with the given error: every rank blocked in a
// simulator primitive (waits, collectives, parked checkpoints) panics with
// an AbortError the runtime recovers, instead of blocking forever. The first
// abort wins; later calls are no-ops. Returns whether this call won.
func (w *World) Abort(err error) bool {
	if err == nil {
		err = fmt.Errorf("mpi: job aborted")
	}
	w.abortMu.Lock()
	if w.abortErr != nil {
		w.abortMu.Unlock()
		return false
	}
	w.abortErr = err
	close(w.abortCh)
	hooks := append([]func(){}, w.abortHooks...)
	w.abortMu.Unlock()

	for _, h := range hooks {
		h()
	}
	w.WakeAll()
	w.wakeSlots()
	return true
}

// AbortErr returns the abort error, or nil while the world is healthy (the
// common case, answered without taking a lock: every wake-up asks).
func (w *World) AbortErr() error {
	select {
	case <-w.abortCh:
	default:
		return nil
	}
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// AbortChan returns a channel closed when the world aborts; host-side code
// blocked on plain channels (not simulator primitives) selects on it.
func (w *World) AbortChan() <-chan struct{} { return w.abortCh }

// OnAbort registers a hook run once when the world aborts. External blocking
// layers (the checkpoint coordinator) register their own condition broadcast
// here so their waiters re-evaluate and observe the abort.
func (w *World) OnAbort(f func()) {
	w.abortMu.Lock()
	aborted := w.abortErr != nil
	if !aborted {
		w.abortHooks = append(w.abortHooks, f)
	}
	w.abortMu.Unlock()
	if aborted {
		f()
	}
}

// checkAbort panics with the abort error if the world has been aborted.
// Every blocking loop in the simulator calls it after each wake-up.
func (w *World) checkAbort() {
	if err := w.AbortErr(); err != nil {
		panic(AbortError{Err: err})
	}
}

// wakeSlots broadcasts every live collective slot's condition variable so
// ranks blocked inside collectives observe an abort.
func (w *World) wakeSlots() {
	w.mu.Lock()
	cores := []*commCore{w.worldCore}
	for _, c := range w.cores {
		cores = append(cores, c)
	}
	w.mu.Unlock()
	for _, core := range cores {
		core.mu.Lock()
		for _, s := range core.live {
			s.cond.Broadcast()
		}
		core.mu.Unlock()
	}
}

// SetWaitSite labels what a rank is currently blocked on (or "" while
// running). The label appears in the watchdog's diagnostic dump; labels are
// static strings so the hot path never formats.
func (w *World) SetWaitSite(rank int, site string) { w.procs[rank].SetWaitSite(site) }

// WaitSites renders one diagnostic line per rank: the wait-site label plus
// the rank's mailbox occupancy (queued unexpected messages, posted receives).
func (w *World) WaitSites() []string {
	out := make([]string, w.N)
	for r := 0; r < w.N; r++ {
		site := "running"
		if s := w.procs[r].waitSite.Load(); s != nil {
			site = *s
		}
		mb := w.mail[r]
		mb.mu.Lock()
		queued, posted := len(mb.queue), len(mb.posted)
		mb.mu.Unlock()
		out[r] = fmt.Sprintf("rank %d: %s (queued=%d posted=%d)", r, site, queued, posted)
	}
	return out
}

// DefaultStallTimeout is the watchdog's default no-progress window. It is
// generous: simulated operations complete in microseconds of host time, so a
// healthy job never goes multiple seconds without a single delivery,
// completion, or park transition.
const DefaultStallTimeout = 5 * time.Second

// StartWatchdog launches the deadlock watchdog: if the world's activity
// counter stops moving for the stall window, the watchdog aborts the world
// with a diagnostic error carrying every rank's wait site (plus whatever the
// optional extra callback contributes, e.g. checkpoint-coordinator state).
// The returned stop function must be called exactly once, after the job's
// rank goroutines have joined.
//
// This converts the worst failure mode of an MPI runtime — a silent hang that
// eats the whole test -timeout — into an immediate, actionable error.
func (w *World) StartWatchdog(stall time.Duration, extra func() string) (stop func()) {
	if stall <= 0 {
		stall = DefaultStallTimeout
	}
	done := make(chan struct{})
	go func() {
		interval := stall / 8
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		last := w.activity.Load()
		//lint:allow wallclock the watchdog watches host time by design: it detects a wedged simulator
		lastChange := time.Now()
		for {
			select {
			case <-done:
				return
			case <-w.abortCh:
				return
			case <-tick.C:
				cur := w.activity.Load()
				if cur != last {
					last = cur
					//lint:allow wallclock the watchdog watches host time by design: it detects a wedged simulator
					lastChange = time.Now()
					continue
				}
				//lint:allow wallclock the watchdog watches host time by design: it detects a wedged simulator
				if time.Since(lastChange) < stall {
					continue
				}
				var b strings.Builder
				fmt.Fprintf(&b, "mpi: deadlock: no progress for %v with all ranks blocked", stall)
				for _, line := range w.WaitSites() {
					b.WriteString("\n  ")
					b.WriteString(line)
				}
				if extra != nil {
					if s := extra(); s != "" {
						b.WriteString("\n  ")
						b.WriteString(s)
					}
				}
				w.Abort(fmt.Errorf("%s", b.String()))
				return
			}
		}
	}()
	return func() { close(done) }
}
