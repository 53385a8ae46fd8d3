package conformance

// Incremental-chain conformance: the staged async checkpoint pipeline must
// produce store epochs that (a) restart into the golden final state from
// EVERY epoch of the chain, (b) be digest-identical to what the synchronous
// full-capture path produces, (c) actually reuse unchanged shards on a
// low-churn workload, (d) stall the job strictly less than the synchronous
// path, and (e) fail attributably when a referenced parent epoch is
// damaged.

import (
	"fmt"
	"math"
	"os"
	"strings"

	"mana/internal/ckpt"
	"mana/internal/rt"
)

// IncrementalChainReport summarizes a verified chain, for callers that
// report (ccverify).
type IncrementalChainReport struct {
	Epochs       int
	ReusedShards int // total across the chain
	FreshShards  int
	StallSyncVT  float64 // summed job stall of the synchronous full chain
	StallAsyncVT float64 // summed job stall of the async incremental chain

	// Streamed leg: the same async incremental pipeline committed under a
	// deliberately tight streaming-encode budget. StreamPeakBytes is the
	// largest per-capture encode high-water observed; the leg fails unless
	// it stays within StreamBudgetBytes.
	StreamBudgetBytes int64
	StreamPeakBytes   int64
}

func (r *IncrementalChainReport) String() string {
	return fmt.Sprintf("%d epochs, %d fresh / %d reused shards, stall %.3gs sync-full vs %.3gs async-incremental; streamed peak encode %d B under a %d B budget",
		r.Epochs, r.FreshShards, r.ReusedShards, r.StallSyncVT, r.StallAsyncVT,
		r.StreamPeakBytes, r.StreamBudgetBytes)
}

// chainPlan returns a periodic checkpoint plan tuned to land at least
// minEpochs captures within the golden run.
func chainPlan(goldenRep *rt.Report, minEpochs int) rt.CkptPlan {
	period := goldenRep.RuntimeVT / float64(minEpochs+2)
	return rt.CkptPlan{
		AtStep: int(goldenRep.RankSteps[0] / int64(minEpochs+2)),
		Every:  period,
		Mode:   ckpt.ContinueAfterCapture,
	}
}

// runChain executes the workload with periodic captures into a fresh
// FileStore and returns the report plus the store. shape is the storage
// side of the plan — Async, Incremental, Delta, CDC, StreamBudgetBytes —
// as the caller would hand it to rt; the capture
// triggers come from chainPlan.
func runChain(o *Options, algo string, goldenRep *rt.Report, factory func(int) rt.App,
	dir string, minEpochs int, shape rt.CkptPlan) (*rt.Report, *ckpt.FileStore, error) {
	fs, err := ckpt.NewFileStore(dir)
	if err != nil {
		return nil, nil, err
	}
	cfg := baseConfig(o, algo)
	plan, trigger := shape, chainPlan(goldenRep, minEpochs)
	plan.AtStep, plan.Every, plan.Mode = trigger.AtStep, trigger.Every, trigger.Mode
	plan.Store = fs
	cfg.Checkpoint = &plan
	rep, err := rt.Run(cfg, factory)
	if err != nil {
		return nil, nil, fmt.Errorf("chained run (async=%v incremental=%v delta=%v cdc=%v): %w",
			shape.Async, shape.Incremental, shape.Delta, shape.CDC, err)
	}
	if !rep.Completed {
		return nil, nil, fmt.Errorf("chained run did not complete")
	}
	return rep, fs, nil
}

// restartEverySealed restarts the job from every sealed epoch of the store
// and checks each restarted digest against the golden one.
func restartEverySealed(o *Options, algo, label string, fs *ckpt.FileStore,
	golden string, factory func(int) rt.App) (int, error) {
	epochs, err := fs.Epochs()
	if err != nil {
		return 0, err
	}
	for _, e := range epochs {
		rep, err := rt.RestartFromStore(baseConfig(o, algo), fs, e, factory)
		if err != nil {
			return 0, fmt.Errorf("%s: restart from epoch %d: %w", label, e, err)
		}
		if !rep.Completed {
			return 0, fmt.Errorf("%s: restart from epoch %d did not complete", label, e)
		}
		if rep.StateDigest != golden {
			return 0, fmt.Errorf("%s: restart from epoch %d diverged: digest %.12s != golden %.12s",
				label, e, rep.StateDigest, golden)
		}
		o.Logf("%s: restart from epoch %d: digest ok", label, e)
	}
	return len(epochs), nil
}

// VerifyIncrementalChain runs the full incremental-chain sweep for one
// workload x algorithm. The workload should be low-churn (the registered
// "straggler" proxy) for the shard-reuse assertions to have teeth; reuse is
// asserted strictly only when requireReuse is set.
func VerifyIncrementalChain(wl, algo string, opts Options, requireReuse bool) (*IncrementalChainReport, error) {
	o := opts.withDefaults()
	if err := notRunnable(wl, algo); err != nil {
		return nil, err
	}
	const minEpochs = 3
	goldenRep, factory, _, err := adaptedGolden(&o, wl, algo)
	if err != nil {
		return nil, err
	}

	tmp, err := os.MkdirTemp("", "ckpt-chain-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Synchronous full captures: the reference chain.
	syncRep, syncFS, err := runChain(&o, algo, goldenRep, factory, tmp+"/sync", minEpochs, rt.CkptPlan{})
	if err != nil {
		return nil, err
	}
	// Asynchronous incremental captures: the staged pipeline under test.
	asyncRep, asyncFS, err := runChain(&o, algo, goldenRep, factory, tmp+"/async", minEpochs, rt.CkptPlan{Async: true, Incremental: true})
	if err != nil {
		return nil, err
	}
	// Streamed leg: the async incremental pipeline again, committed through
	// the streaming shard API under a deliberately tight in-flight encode
	// budget. The budget bounds memory, never content: the chain must stay
	// digest-identical and restart from every sealed epoch like the rest.
	const streamBudget = int64(4) << 20
	streamRep, streamFS, err := runChain(&o, algo, goldenRep, factory, tmp+"/streamed", minEpochs, rt.CkptPlan{Async: true, Incremental: true, StreamBudgetBytes: streamBudget})
	if err != nil {
		return nil, err
	}
	for _, rep := range []*rt.Report{syncRep, asyncRep, streamRep} {
		if rep.StateDigest != goldenRep.StateDigest {
			return nil, fmt.Errorf("chained run diverged from golden: %.12s != %.12s",
				rep.StateDigest, goldenRep.StateDigest)
		}
	}

	rpt := &IncrementalChainReport{}
	for _, st := range syncRep.CheckpointHistory {
		rpt.StallSyncVT += st.StallVT
		if st.OverlapVT != 0 {
			return nil, fmt.Errorf("synchronous capture reported overlapped write: %+v", st)
		}
	}
	for _, st := range asyncRep.CheckpointHistory {
		rpt.StallAsyncVT += st.StallVT
		rpt.FreshShards += st.FreshShards
		rpt.ReusedShards += st.ReusedShards
		if math.Abs(st.StallVT+st.OverlapVT-st.WriteVT) > 1e-9 {
			return nil, fmt.Errorf("async capture accounting broken (stall %g + overlap %g != write %g)",
				st.StallVT, st.OverlapVT, st.WriteVT)
		}
	}
	// Streamed-leg accounting: every capture must report a positive encode
	// high-water mark at or below the configured budget — the bounded-memory
	// contract, checked capture by capture.
	rpt.StreamBudgetBytes = streamBudget
	for _, st := range streamRep.CheckpointHistory {
		// An epoch that reused every shard legitimately streams nothing and
		// peaks at zero; only a capture that WROTE fresh shards must show a
		// high-water mark.
		if st.PeakEncodeBytes <= 0 && st.FreshShards > 0 {
			return nil, fmt.Errorf("streamed capture reported no encode high-water mark: %+v", st)
		}
		if st.PeakEncodeBytes > streamBudget {
			return nil, fmt.Errorf("streamed capture's encode peak %d exceeds the %d budget",
				st.PeakEncodeBytes, streamBudget)
		}
		if st.PeakEncodeBytes > rpt.StreamPeakBytes {
			rpt.StreamPeakBytes = st.PeakEncodeBytes
		}
	}
	if len(asyncRep.CheckpointHistory) < minEpochs || len(syncRep.CheckpointHistory) < minEpochs ||
		len(streamRep.CheckpointHistory) < minEpochs {
		return nil, fmt.Errorf("only %d async / %d sync / %d streamed chained captures (want >= %d)",
			len(asyncRep.CheckpointHistory), len(syncRep.CheckpointHistory),
			len(streamRep.CheckpointHistory), minEpochs)
	}
	// Compare the MEAN job-visible stall per capture: capture counts may
	// drift between the two runs (host scheduling shifts where chained
	// triggers land), but every synchronous capture stalls latency plus a
	// strictly positive transfer while every async capture stalls exactly
	// the open latency.
	meanSync := rpt.StallSyncVT / float64(len(syncRep.CheckpointHistory))
	meanAsync := rpt.StallAsyncVT / float64(len(asyncRep.CheckpointHistory))
	if meanAsync >= meanSync {
		return nil, fmt.Errorf("async incremental captures stalled %.4gs each, not below synchronous %.4gs",
			meanAsync, meanSync)
	}
	if requireReuse && rpt.ReusedShards == 0 {
		return nil, fmt.Errorf("low-churn chain reused no shards (%d fresh)", rpt.FreshShards)
	}

	// Every sealed epoch of BOTH chains must restart into the golden state —
	// this is the digest-identity between the async incremental pipeline and
	// the synchronous full path.
	if _, err := restartEverySealed(&o, algo, wl+"/sync-full", syncFS, goldenRep.StateDigest, factory); err != nil {
		return nil, err
	}
	if _, err := restartEverySealed(&o, algo, wl+"/streamed", streamFS, goldenRep.StateDigest, factory); err != nil {
		return nil, err
	}
	n, err := restartEverySealed(&o, algo, wl+"/async-incremental", asyncFS, goldenRep.StateDigest, factory)
	if err != nil {
		return nil, err
	}
	rpt.Epochs = n
	if n < minEpochs {
		return nil, fmt.Errorf("only %d sealed epochs (want >= %d)", n, minEpochs)
	}

	for _, fs := range []*ckpt.FileStore{asyncFS, streamFS} {
		if faults, err := ckpt.VerifyStore(fs); err != nil || len(faults) != 0 {
			return nil, fmt.Errorf("pristine chain did not verify: faults=%v err=%v", faults, err)
		}
	}

	// Negative leg: damage a shard that a LATER epoch references (extends
	// VerifyShardCorruptionDetected across the chain) and assert the restart
	// reports which epoch and shard failed.
	if rpt.ReusedShards > 0 {
		if err := verifyChainCorruptionAttributed(&o, algo, asyncFS, factory); err != nil {
			return nil, err
		}
	}
	return rpt, nil
}

// verifyChainCorruptionAttributed corrupts a referenced parent shard inside
// a FileStore chain and asserts that restarting the referencing epoch fails
// with an error naming the epoch, the rank, and the epoch holding the
// bytes — and that VerifyStore attributes the same fault.
func verifyChainCorruptionAttributed(o *Options, algo string, fs *ckpt.FileStore, factory func(int) rt.App) error {
	epochs, err := fs.Epochs()
	if err != nil {
		return err
	}
	// Newest epoch that holds a cross-epoch reference (the newest may be
	// all-fresh if the last drain caught every rank mid-churn).
	var victim *ckpt.ShardInfo
	var last int
	for i := len(epochs) - 1; i >= 0 && victim == nil; i-- {
		man, err := fs.GetManifest(epochs[i])
		if err != nil {
			return err
		}
		for j := range man.Shards {
			if man.Shards[j].RefEpoch != man.Epoch {
				victim = &man.Shards[j]
				last = man.Epoch
				break
			}
		}
	}
	if victim == nil {
		return fmt.Errorf("chain holds no cross-epoch references to corrupt")
	}
	path := fs.ShardPath(victim.RefEpoch, victim.Rank)
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading referenced shard: %w", err)
	}
	pristine := append([]byte(nil), blob...)
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	defer os.WriteFile(path, pristine, 0o644)

	_, rerr := rt.RestartFromStore(baseConfig(o, algo), fs, last, factory)
	if rerr == nil {
		return fmt.Errorf("restart from epoch %d succeeded over a corrupted parent epoch %d", last, victim.RefEpoch)
	}
	for _, want := range []string{
		fmt.Sprintf("epoch %d", last),
		fmt.Sprintf("rank %d", victim.Rank),
		fmt.Sprintf("stored in epoch %d", victim.RefEpoch),
	} {
		if !strings.Contains(rerr.Error(), want) {
			return fmt.Errorf("restart error %q does not attribute %q", rerr, want)
		}
	}
	faults, err := ckpt.VerifyStore(fs)
	if err != nil {
		return err
	}
	if len(faults) == 0 {
		return fmt.Errorf("store verify missed the corrupted parent shard")
	}
	for _, f := range faults {
		if f.Rank != victim.Rank || f.RefEpoch != victim.RefEpoch {
			return fmt.Errorf("fault misattributed: %+v (want rank %d in epoch %d)", f, victim.Rank, victim.RefEpoch)
		}
	}
	o.Logf("chain corruption attributed: rank %d in epoch %d (referenced from epoch %d)",
		victim.Rank, victim.RefEpoch, last)
	return nil
}

// DefaultChainWorkload is the registered low-churn workload the incremental
// sweep defaults to: most ranks finish early, so periodic captures reuse
// their frozen shards.
const DefaultChainWorkload = "straggler"
