// Package conformance is the differential checkpoint-anywhere conformance
// engine: the executable form of the paper's central correctness claim, that
// the collective-clock drain lets a checkpoint be taken at *any* point during
// execution and still restart into a state indistinguishable from an
// uninterrupted run (the transparency MANA guarantees via 2PC and the CC
// algorithm via per-group clocks).
//
// For every registered workload and every checkpointing algorithm the engine
//
//  1. runs the job uninterrupted to obtain a golden final-state digest (a
//     canonical hash over every rank's final snapshot), then
//  2. re-runs it with a checkpoint-and-exit injected at each point of a sweep
//     over rank 0's step index — every step for small runs, stratified
//     sampling for large ones — restarts from the captured image, and asserts
//     that the restarted run's digest is bitwise-identical to the golden one,
//     that the drain terminated within a bounded virtual-time budget, and
//     that the drain's progress counters are consistent.
//
// A third, negative, mode corrupts a captured image and asserts the
// corruption is detected (restore error or digest mismatch) — guarding the
// guard.
package conformance

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// Options configures a conformance sweep.
type Options struct {
	// Ranks and PPN shape the simulated job (defaults 4 and 4).
	Ranks int
	PPN   int
	// Scale multiplies workload iteration counts (default 0.001). If a
	// workload yields too few steps for the requested trigger count, the
	// engine doubles the scale until the sweep fits.
	Scale float64
	// Workloads to verify; defaults to every registered workload.
	Workloads []string
	// Algorithms to verify; defaults to CC and the 2PC baseline.
	Algorithms []string
	// MinTriggers is the minimum number of distinct checkpoint trigger
	// points per case (default 8). MaxTriggers caps the sweep: runs with
	// more steps than MaxTriggers are sampled stratified (default 16).
	MinTriggers int
	MaxTriggers int
	// DrainBudgetFactor bounds the drain: DrainVT must not exceed
	// factor*goldenRuntime + 0.1s (default 2.0). The paper's claim is that
	// the topological-sort drain terminates promptly; a drain that costs
	// multiples of the whole uninterrupted run violates it.
	DrainBudgetFactor float64
	// StallTimeout is passed to every run's deadlock watchdog (default
	// mpi.DefaultStallTimeout). A conformance sweep must never hang.
	StallTimeout time.Duration
	// Verbose emits one line per trigger via Logf.
	Verbose bool
	Logf    func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Ranks <= 0 {
		out.Ranks = 4
	}
	if out.PPN <= 0 {
		out.PPN = 4
	}
	if out.Scale <= 0 {
		out.Scale = 0.001
	}
	if len(out.Workloads) == 0 {
		out.Workloads = apps.Names
	}
	if len(out.Algorithms) == 0 {
		out.Algorithms = []string{rt.AlgoCC, rt.Algo2PC}
	}
	if out.MinTriggers <= 0 {
		out.MinTriggers = 8
	}
	if out.MaxTriggers < out.MinTriggers {
		out.MaxTriggers = 16
		if out.MaxTriggers < out.MinTriggers {
			out.MaxTriggers = out.MinTriggers
		}
	}
	if out.DrainBudgetFactor <= 0 {
		out.DrainBudgetFactor = 2.0
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// TriggerResult is the verdict for one checkpoint trigger point.
type TriggerResult struct {
	Step      int     // rank-0 step index the checkpoint was requested at
	CaptureVT float64 // virtual time of the capture
	DrainVT   float64 // drain cost (capture - request)
	Err       string  // non-empty on failure
}

// CaseResult is the verdict for one workload x algorithm combination.
type CaseResult struct {
	Workload  string
	Algorithm string

	Skipped    bool
	SkipReason string

	GoldenDigest string
	GoldenSteps  int64 // rank 0's step count in the golden run

	Triggers []TriggerResult
	Failures int
}

// Failed reports whether any trigger in the case failed.
func (cr *CaseResult) Failed() bool { return cr.Failures > 0 }

// MatrixResult aggregates a full sweep.
type MatrixResult struct {
	Cases []CaseResult
}

// Failed reports whether any case failed.
func (m *MatrixResult) Failed() bool {
	for i := range m.Cases {
		if m.Cases[i].Failed() {
			return true
		}
	}
	return false
}

// String renders the matrix as a compact report table.
func (m *MatrixResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %-9s %8s %9s  %s\n",
		"WORKLOAD", "ALGO", "TRIGGERS", "STEPS", "DRAIN-MAX", "RESULT")
	for i := range m.Cases {
		c := &m.Cases[i]
		if c.Skipped {
			fmt.Fprintf(&b, "%-10s %-6s %-9s %8s %9s  skipped: %s\n",
				c.Workload, c.Algorithm, "-", "-", "-", c.SkipReason)
			continue
		}
		var maxDrain float64
		for _, t := range c.Triggers {
			if t.DrainVT > maxDrain {
				maxDrain = t.DrainVT
			}
		}
		result := "ok"
		if c.Failed() {
			result = fmt.Sprintf("FAIL (%d/%d triggers)", c.Failures, len(c.Triggers))
		}
		fmt.Fprintf(&b, "%-10s %-6s %-9d %8d %8.3gs  %s\n",
			c.Workload, c.Algorithm, len(c.Triggers), c.GoldenSteps, maxDrain, result)
		for _, t := range c.Triggers {
			if t.Err != "" {
				fmt.Fprintf(&b, "    step %d: %s\n", t.Step, t.Err)
			}
		}
	}
	return b.String()
}

// Run executes the full conformance matrix.
func Run(opts Options) (*MatrixResult, error) {
	o := opts.withDefaults()
	m := &MatrixResult{}
	for _, wl := range o.Workloads {
		for _, algo := range o.Algorithms {
			cr, err := RunCase(wl, algo, o)
			if err != nil {
				return m, fmt.Errorf("conformance: %s/%s: %w", wl, algo, err)
			}
			m.Cases = append(m.Cases, *cr)
		}
	}
	return m, nil
}

// baseConfig builds the shared run configuration for a case.
func baseConfig(o *Options, algo string) rt.Config {
	return rt.Config{
		Ranks:        o.Ranks,
		PPN:          o.PPN,
		Params:       netmodel.EthernetLike(),
		Algorithm:    algo,
		StallTimeout: o.StallTimeout,
	}
}

// golden runs the workload uninterrupted at the given scale and returns the
// report; the digest inside is the reference all checkpointed runs must hit.
func golden(o *Options, wl, algo string, scale float64) (*rt.Report, func(int) rt.App, error) {
	factory, err := apps.Factory(wl, scale)
	if err != nil {
		return nil, nil, err
	}
	rep, err := runGolden(o, algo, factory)
	return rep, factory, err
}

// runGolden runs a job uninterrupted and checks it left a digest.
func runGolden(o *Options, algo string, factory func(int) rt.App) (*rt.Report, error) {
	rep, err := rt.Run(baseConfig(o, algo), factory)
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	if !rep.Completed {
		return nil, fmt.Errorf("golden run did not complete")
	}
	if rep.StateDigest == "" {
		return nil, fmt.Errorf("golden run produced no state digest")
	}
	return rep, nil
}

// adaptedGolden runs the golden job, doubling the scale until the run has at
// least MinTriggers+2 rank-0 steps: the trigger sweep needs room, and tiny
// scaled workloads may complete in fewer.
func adaptedGolden(o *Options, wl, algo string) (*rt.Report, func(int) rt.App, error) {
	scale := o.Scale
	for attempt := 0; ; attempt++ {
		rep, factory, err := golden(o, wl, algo, scale)
		if err != nil {
			return nil, nil, err
		}
		if rep.RankSteps[0] >= int64(o.MinTriggers)+2 {
			return rep, factory, nil
		}
		if attempt >= 12 {
			return nil, nil, fmt.Errorf("cannot reach %d steps (have %d at scale %g)",
				o.MinTriggers+2, rep.RankSteps[0], scale)
		}
		scale *= 2
	}
}

// sweepPoints selects the checkpoint trigger steps for a run of n rank-0
// steps: every step when the run is small enough, otherwise a stratified
// sample (always including the earliest and latest usable step).
func sweepPoints(n int64, minT, maxT int) []int {
	// Usable triggers are steps 1..n-1: step 0 has no state to speak of and
	// a trigger at the final step races program completion.
	last := int(n - 1)
	if last < 1 {
		return nil
	}
	if last <= maxT {
		out := make([]int, 0, last)
		for s := 1; s <= last; s++ {
			out = append(out, s)
		}
		return out
	}
	k := maxT
	if k < minT {
		k = minT
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		// Stratified: the i-th sample sits in the i-th of k equal strata.
		s := 1 + int(float64(last-1)*float64(i)/float64(k-1))
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// RunCase verifies one workload x algorithm combination.
func RunCase(wl, algo string, opts Options) (*CaseResult, error) {
	o := opts.withDefaults()
	cr := &CaseResult{Workload: wl, Algorithm: algo}

	if algo == rt.AlgoNative || algo == "" {
		return nil, fmt.Errorf("the native baseline cannot checkpoint; verify %q or %q", rt.AlgoCC, rt.Algo2PC)
	}
	if algo == rt.Algo2PC && apps.UsesNonblockingCollectives(wl) {
		// The paper's "NA" entries: 2PC cannot wrap non-blocking collectives.
		cr.Skipped = true
		cr.SkipReason = "2PC does not support non-blocking collectives"
		return cr, nil
	}

	// Golden run, adapting scale until the sweep has room.
	goldenRep, factory, err := adaptedGolden(&o, wl, algo)
	if err != nil {
		return nil, err
	}
	cr.GoldenDigest = goldenRep.StateDigest
	cr.GoldenSteps = goldenRep.RankSteps[0]

	drainBudget := o.DrainBudgetFactor*goldenRep.RuntimeVT + 0.1

	for _, step := range sweepPoints(cr.GoldenSteps, o.MinTriggers, o.MaxTriggers) {
		tr := verifyTrigger(&o, wl, algo, cr, factory, step, drainBudget)
		if tr.Err != "" {
			cr.Failures++
		}
		cr.Triggers = append(cr.Triggers, tr)
		if o.Verbose {
			status := "ok"
			if tr.Err != "" {
				status = tr.Err
			}
			o.Logf("%s/%s step %d: capture@%.4gs drain=%.3gs %s",
				wl, algo, tr.Step, tr.CaptureVT, tr.DrainVT, status)
		}
	}
	return cr, nil
}

// verifyTrigger runs one checkpoint-at-step, restart, and digest comparison.
func verifyTrigger(o *Options, wl, algo string, cr *CaseResult, factory func(int) rt.App, step int, drainBudget float64) TriggerResult {
	tr := TriggerResult{Step: step}

	cfg := baseConfig(o, algo)
	cfg.Checkpoint = &rt.CkptPlan{AtStep: step, Mode: ckpt.ExitAfterCapture}
	rep, err := rt.Run(cfg, factory)
	if err != nil {
		tr.Err = fmt.Sprintf("checkpointed run: %v", err)
		return tr
	}
	if rep.Image == nil {
		// The job finished before the request could capture — possible when
		// the trigger lands on the final boundary; count it as an empty
		// verdict rather than a failure (the sweep has earlier triggers).
		if rep.StateDigest != cr.GoldenDigest {
			tr.Err = fmt.Sprintf("uncaptured run diverged: digest %.12s != golden %.12s",
				rep.StateDigest, cr.GoldenDigest)
		}
		return tr
	}
	tr.CaptureVT = rep.Checkpoint.CaptureVT
	tr.DrainVT = rep.Checkpoint.DrainVT
	if tr.DrainVT < 0 {
		tr.Err = fmt.Sprintf("negative drain time %g", tr.DrainVT)
		return tr
	}
	if tr.DrainVT > drainBudget {
		tr.Err = fmt.Sprintf("drain %.3gs exceeded budget %.3gs", tr.DrainVT, drainBudget)
		return tr
	}
	if algo == rt.AlgoCC && rep.Checkpoint.TargetUpdatesSent != rep.Checkpoint.TargetUpdatesRecv {
		tr.Err = fmt.Sprintf("drain counters unbalanced: %d target updates sent, %d consumed",
			rep.Checkpoint.TargetUpdatesSent, rep.Checkpoint.TargetUpdatesRecv)
		return tr
	}
	parked := rep.Checkpoint.ParkedPreColl + rep.Checkpoint.ParkedInBarrier +
		rep.Checkpoint.ParkedInWait + rep.Checkpoint.DoneAtCapture
	if parked != o.Ranks {
		tr.Err = fmt.Sprintf("park census %d does not cover %d ranks", parked, o.Ranks)
		return tr
	}

	// The restart reads the epoch the capture sealed, so it crosses the
	// store's encode, verify and decode path as a production restart would.
	rep2, err := rt.RestartFromStore(baseConfig(o, algo), rep.Store, rep.Checkpoint.Epoch, factory)
	if err != nil {
		tr.Err = fmt.Sprintf("restart: %v", err)
		return tr
	}
	if !rep2.Completed {
		tr.Err = "restarted run did not complete"
		return tr
	}
	if rep2.StateDigest != cr.GoldenDigest {
		tr.Err = fmt.Sprintf("digest mismatch after restart: %.12s != golden %.12s",
			rep2.StateDigest, cr.GoldenDigest)
	}
	return tr
}

// captureMidRun runs the workload with a checkpoint-and-exit at the middle
// of its golden step range and returns the golden report, the factory, and
// the capturing run's report (its image, and the store and epoch it sealed
// into). Shared by the negative and cross-geometry checks.
func captureMidRun(o *Options, wl, algo string) (*rt.Report, func(int) rt.App, *rt.Report, error) {
	goldenRep, factory, err := adaptedGolden(o, wl, algo)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := baseConfig(o, algo)
	cfg.Checkpoint = &rt.CkptPlan{AtStep: int(goldenRep.RankSteps[0] / 2), Mode: ckpt.ExitAfterCapture}
	rep, err := rt.Run(cfg, factory)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("checkpointed run: %w", err)
	}
	if rep.Image == nil {
		return nil, nil, nil, fmt.Errorf("no image captured at step %d", cfg.Checkpoint.AtStep)
	}
	return goldenRep, factory, rep, nil
}

// notRunnable reports why a workload x algorithm cell cannot execute.
func notRunnable(wl, algo string) error {
	if algo == rt.AlgoNative || algo == "" {
		return fmt.Errorf("the native baseline cannot checkpoint")
	}
	if algo == rt.Algo2PC && apps.UsesNonblockingCollectives(wl) {
		return fmt.Errorf("case %s/%s is not runnable: 2PC does not support non-blocking collectives", wl, algo)
	}
	return nil
}

// crossGeometries selects restart placements that differ from the capture
// PPN: fully packed (one node), fully spread (one rank per node), and a
// halved PPN when it exists. These are the MANA allocation-chaining shapes —
// same rank count, different node count.
func crossGeometries(ranks, ppn int) []int {
	var out []int
	seen := map[int]bool{ppn: true}
	for _, cand := range []int{ranks, 1, ppn / 2} {
		if cand >= 1 && cand <= ranks && !seen[cand] {
			seen[cand] = true
			out = append(out, cand)
		}
	}
	return out
}

// crossGeometryOn checks the allocation-chaining claim: a checkpoint
// captured on one geometry must restart onto a different ranks-per-node
// placement (and node count) and still reach the golden final-state digest.
// Each restart reads the sealed epoch back from the capture's store, as a
// real chained allocation would.
func crossGeometryOn(o *Options, wl, algo string, goldenRep *rt.Report, factory func(int) rt.App, capture *rt.Report) error {
	geos := crossGeometries(o.Ranks, o.PPN)
	if len(geos) == 0 {
		return fmt.Errorf("no alternative geometry exists for %d ranks x %d ppn", o.Ranks, o.PPN)
	}
	for _, ppn := range geos {
		cfg := baseConfig(o, algo)
		cfg.PPN = ppn
		rep, err := rt.RestartFromStore(cfg, capture.Store, capture.Checkpoint.Epoch, factory)
		if err != nil {
			return fmt.Errorf("restart at ppn %d: %w", ppn, err)
		}
		if !rep.Completed {
			return fmt.Errorf("restart at ppn %d did not complete", ppn)
		}
		if rep.StateDigest != goldenRep.StateDigest {
			return fmt.Errorf("restart at ppn %d diverged: digest %.12s != golden %.12s",
				ppn, rep.StateDigest, goldenRep.StateDigest)
		}
		o.Logf("%s/%s cross-geometry ppn %d->%d: digest ok", wl, algo, o.PPN, ppn)
	}
	return nil
}

// shardCorruptionOn guards the store's integrity story on disk: it commits
// the capture as epoch 0 of a temporary FileStore, flips one byte inside a
// specific rank's shard file, and asserts that (a) the full load refuses the
// epoch, (b) per-shard verification attributes the fault to exactly the
// corrupted rank, and (c) the pristine epoch verifies clean.
func shardCorruptionOn(img *ckpt.JobImage) error {
	dir, err := os.MkdirTemp("", "ckpt-shard-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := ckpt.NewFileStore(dir)
	if err != nil {
		return err
	}
	if _, _, err := ckpt.CommitCapture(fs, 0, nil, img); err != nil {
		return fmt.Errorf("committing the capture: %w", err)
	}
	if faults, err := ckpt.VerifyStore(fs); err != nil || len(faults) != 0 {
		return fmt.Errorf("pristine epoch did not verify: faults=%v err=%v", faults, err)
	}
	// Any shard must be covered; damage the last rank's.
	victim := len(img.Images) - 1
	path := fs.ShardPath(0, victim)
	shard, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	shard[len(shard)/2] ^= 0xFF
	if err := os.WriteFile(path, shard, 0o644); err != nil {
		return err
	}
	if _, err := ckpt.LoadJobImage(fs, 0); err == nil {
		return fmt.Errorf("load accepted an epoch with a corrupted rank-%d shard", victim)
	}
	faults, err := ckpt.VerifyStore(fs)
	if err != nil {
		return fmt.Errorf("per-shard verify failed structurally: %w", err)
	}
	if len(faults) != 1 || faults[0].Rank != victim {
		return fmt.Errorf("corruption in rank %d's shard attributed to %v", victim, faults)
	}
	return nil
}

// AuxVerdict is the outcome of one auxiliary (beyond-the-matrix) check.
type AuxVerdict struct {
	Name string // "negative", "shard-corruption", "cross-geometry"
	OK   string // success message for reporting
	Err  error  // nil on pass
}

// VerifyAuxSuite runs the selected auxiliary checks — snapshot corruption,
// per-shard corruption, cross-geometry restart — over ONE shared mid-run
// capture, so a caller gating on all of them (ccverify) does not re-simulate
// the same golden and checkpointed runs once per check. The error return is
// structural (unrunnable case, capture failure); per-check failures land in
// the verdicts.
func VerifyAuxSuite(wl, algo string, opts Options, negative, crossgeo bool) ([]AuxVerdict, error) {
	o := opts.withDefaults()
	if err := notRunnable(wl, algo); err != nil {
		return nil, err
	}
	goldenRep, factory, capture, err := captureMidRun(&o, wl, algo)
	if err != nil {
		return nil, err
	}
	var out []AuxVerdict
	if negative {
		out = append(out, AuxVerdict{
			Name: "negative",
			OK:   "corrupted image detected, ok",
			Err:  corruptionDetectedOn(&o, algo, goldenRep, factory, capture),
		}, AuxVerdict{
			Name: "shard-corruption",
			OK:   "corrupted shard detected and attributed, ok",
			Err:  shardCorruptionOn(capture.Image),
		})
	}
	if crossgeo {
		out = append(out, AuxVerdict{
			Name: "cross-geometry",
			OK:   "restart digests match across geometries, ok",
			Err:  crossGeometryOn(&o, wl, algo, goldenRep, factory, capture),
		})
	}
	return out, nil
}

// corruptionDetectedOn corrupts one byte of a rank's application snapshot
// in a private copy of the capture's sealed epoch, loaded from its store, and
// confirms the corruption cannot slip through: either the restore fails
// outright or the restarted run's digest diverges from the golden one. It
// returns an error if the corrupted image restarts into the golden state —
// which would mean the conformance engine is incapable of detecting real
// divergence.
func corruptionDetectedOn(o *Options, algo string, goldenRep *rt.Report, factory func(int) rt.App, capture *rt.Report) error {
	img, err := ckpt.LoadJobImage(capture.Store, capture.Checkpoint.Epoch)
	if err != nil {
		return fmt.Errorf("loading the captured epoch: %w", err)
	}
	// Corrupt one byte in the middle of rank 0's application snapshot.
	if len(img.Images[0].App) == 0 {
		return fmt.Errorf("rank 0 snapshot is empty; nothing to corrupt")
	}
	img.Images[0].App[len(img.Images[0].App)/2] ^= 0xFF

	rep2, err := rt.Restart(baseConfig(o, algo), img, factory)
	if err != nil {
		return nil // detected: the corrupted snapshot failed to restore
	}
	if rep2.StateDigest == goldenRep.StateDigest {
		return fmt.Errorf("corrupted image restarted into the golden state digest %.12s", goldenRep.StateDigest)
	}
	return nil // detected: digest diverged
}
