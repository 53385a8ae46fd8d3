package conformance

// Fault-injection conformance: the ROADMAP's "kill a rank mid-drain /
// mid-capture" item. The sweeps only ever exercised clean drains; these
// probes kill one rank while a checkpoint is in flight and assert the
// coordinator's failure paths stay live — the run must end with an
// attributable error (crash), a watchdog diagnostic (silent death), or a
// capture error naming the rank (snapshot failure) — never a wedge.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mana/internal/ckpt"
	"mana/internal/rt"
)

// faultMode selects how the victim rank dies.
type faultMode int

const (
	// faultCrash: the victim's Step returns an error at the first step
	// boundary where a checkpoint drain is pending (mid-drain).
	faultCrash faultMode = iota
	// faultHang: the victim silently stops participating mid-drain — the
	// worst failure mode; only the deadlock watchdog can unwedge the job.
	faultHang
	// faultSnapshot: the victim parks normally but its snapshot hook fails
	// at capture time (mid-capture).
	faultSnapshot
)

var errInjectedCrash = fmt.Errorf("injected fault: rank crashed mid-drain")

// faultApp wraps a workload's per-rank app, killing the victim rank per the
// selected mode. All other behavior delegates.
type faultApp struct {
	rt.App
	mode faultMode
}

func (f *faultApp) Step(env *rt.Env) (bool, error) {
	if env.CheckpointPending() {
		switch f.mode {
		case faultCrash:
			return false, errInjectedCrash
		case faultHang:
			env.BlockUntilAbort() // unwinds via the abort panic
		}
	}
	return f.App.Step(env)
}

func (f *faultApp) SnapshotTo(w io.Writer) error {
	if f.mode == faultSnapshot {
		return fmt.Errorf("injected fault: snapshot failed mid-capture")
	}
	return f.App.SnapshotTo(w)
}

// VerifyFaultInjection kills one rank mid-drain (crash and silent-hang
// variants) and mid-capture (snapshot failure) for the given workload x
// algorithm, asserting each time that the run aborts promptly with
// diagnostics instead of wedging. Returns one verdict per probe; the error
// return is structural (unrunnable case).
func VerifyFaultInjection(wl, algo string, opts Options) ([]AuxVerdict, error) {
	o := opts.withDefaults()
	if err := notRunnable(wl, algo); err != nil {
		return nil, err
	}
	if o.StallTimeout == 0 {
		// The hang probe deliberately wedges the job; a short watchdog
		// window keeps the probe fast without being racy (the window only
		// starts counting once all activity stops).
		o.StallTimeout = time.Second
	}
	goldenRep, factory, err := adaptedGolden(&o, wl, algo)
	if err != nil {
		return nil, err
	}
	midStep := int(goldenRep.RankSteps[0] / 2)

	run := func(mode faultMode, victim int) (*rt.Report, error) {
		cfg := baseConfig(&o, algo)
		cfg.Checkpoint = &rt.CkptPlan{AtStep: midStep, Mode: ckpt.ExitAfterCapture}
		deadline := time.AfterFunc(2*time.Minute, func() {
			panic(fmt.Sprintf("fault probe (mode %d) wedged the host", mode))
		})
		defer deadline.Stop()
		return rt.Run(cfg, func(rank int) rt.App {
			app := factory(rank)
			if rank == victim {
				return &faultApp{App: app, mode: mode}
			}
			return app
		})
	}

	probe := func(name string, mode faultMode, victim int, wantInError ...string) AuxVerdict {
		v := AuxVerdict{Name: name}
		//lint:allow wallclock probe verdicts deliberately report host-side wall time
		start := time.Now()
		_, err := run(mode, victim)
		if err == nil {
			v.Err = fmt.Errorf("rank %d died %s but the run reported success", victim, name)
			return v
		}
		for _, want := range wantInError {
			if !strings.Contains(err.Error(), want) {
				v.Err = fmt.Errorf("abort diagnostic %q does not mention %q", err, want)
				return v
			}
		}
		//lint:allow wallclock probe verdicts deliberately report host-side wall time
		v.OK = fmt.Sprintf("aborted with diagnostics in %s, ok", time.Since(start).Round(time.Millisecond))
		o.Logf("%s/%s fault %s: %v", wl, algo, name, err)
		return v
	}

	// The mid-drain victims are rank 0: the runner raises the AtStep request
	// on rank 0's own goroutine immediately before its Step call, so the
	// victim observing CheckpointPending at step entry is deterministic —
	// the drain is provably in flight when it dies. The mid-capture victim
	// is the last rank: it parks normally and its snapshot hook fails only
	// once the coordinator reaches it during capture.
	return []AuxVerdict{
		probe("crash-mid-drain", faultCrash, 0, "injected fault", "rank 0"),
		// A silently dead rank produces no error of its own; the watchdog
		// must convert the wedge into a diagnostic naming the dead rank's
		// wait site and the coordinator's pending drain.
		probe("hang-mid-drain", faultHang, 0, "deadlock", "fault-injected dead rank", "phase=pending"),
		probe("snapshot-fail-mid-capture", faultSnapshot, o.Ranks-1,
			"injected fault", fmt.Sprintf("rank %d", o.Ranks-1)),
	}, nil
}
