package conformance

// Page-delta conformance: with CkptPlan.Delta on, a low-churn chain must
// (a) actually store partially-changed shards as page deltas, (b) write
// strictly fewer fresh bytes than the same chain without deltas, (c) restart
// digest-identical from EVERY sealed epoch (deltas reassemble through their
// base), (d) keep the streaming encoder's peak within the budget, and
// (e) fail attributably when the full base shard a delta patches is damaged.

import (
	"fmt"
	"os"
	"strings"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/rt"
)

// DeltaChainReport summarizes a verified page-delta chain, for callers that
// report (ccverify).
type DeltaChainReport struct {
	Epochs       int
	DeltaShards  int   // fresh shards stored as page deltas, chain total
	FreshShards  int   // all fresh shards (deltas included), chain total
	FreshBytes   int64 // fresh compressed bytes of the delta chain
	BaselineB    int64 // fresh compressed bytes of the same chain without deltas
	StreamBudget int64
	StreamPeak   int64
}

func (r *DeltaChainReport) String() string {
	return fmt.Sprintf("%d epochs, %d/%d fresh shards as page deltas, %d fresh bytes vs %d without deltas; peak encode %d B under a %d B budget",
		r.Epochs, r.DeltaShards, r.FreshShards, r.FreshBytes, r.BaselineB,
		r.StreamPeak, r.StreamBudget)
}

// deltaFactory builds the page-scale straggler: hot ranks carry a bulk state
// well past one 64 KiB page while each step's churn touches only a few
// elements, so successive captures dirty a small fraction of the pages — the
// workload shape page deltas exist for. (The registered straggler keeps
// shards under one page, where the differ correctly re-anchors to full
// shards and no delta is ever stored.)
func deltaFactory(ranks int) func(int) rt.App {
	cfg := apps.StragglerConfig{
		HotRanks:  2,
		ColdSteps: 4,
		HotIters:  60,
		// Cold ranks: one page of frozen state (exact reuse after warmup).
		StateElems: 8 << 10, // 64 KiB
		// Hot ranks: 8 pages of bulk state; the step loop overwrites 64 B per
		// iteration, so a capture period dirties page 0 (the header/counters)
		// plus the page or two the churn window crossed.
		HotStateElems: 64 << 10, // 512 KiB
	}
	if cfg.HotRanks >= ranks {
		cfg.HotRanks = 1
	}
	return func(rank int) rt.App { return apps.NewStraggler(cfg, rank) }
}

// VerifyDeltaChain runs the page-delta conformance sweep for one algorithm
// on the page-scale straggler workload.
func VerifyDeltaChain(algo string, opts Options) (*DeltaChainReport, error) {
	o := opts.withDefaults()
	if err := notRunnable(DefaultChainWorkload, algo); err != nil {
		return nil, err
	}
	const minEpochs = 3
	factory := deltaFactory(o.Ranks)

	// Golden reference: the same program uninterrupted.
	goldenRep, err := rt.Run(baseConfig(&o, algo), factory)
	if err != nil {
		return nil, fmt.Errorf("delta golden run: %w", err)
	}
	if !goldenRep.Completed || goldenRep.StateDigest == "" {
		return nil, fmt.Errorf("delta golden run produced no digest")
	}

	tmp, err := os.MkdirTemp("", "ckpt-delta-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Baseline: async incremental WITHOUT deltas — whole-shard reuse only.
	const streamBudget = int64(4) << 20
	baseRep, _, err := runChain(&o, algo, goldenRep, factory, tmp+"/whole", minEpochs, rt.CkptPlan{Async: true, Incremental: true, StreamBudgetBytes: streamBudget})
	if err != nil {
		return nil, err
	}
	// Under test: the same pipeline with page deltas on.
	deltaRep, deltaFS, err := runChain(&o, algo, goldenRep, factory, tmp+"/delta", minEpochs, rt.CkptPlan{Async: true, Incremental: true, Delta: true, StreamBudgetBytes: streamBudget})
	if err != nil {
		return nil, err
	}
	for _, rep := range []*rt.Report{baseRep, deltaRep} {
		if rep.StateDigest != goldenRep.StateDigest {
			return nil, fmt.Errorf("delta-leg chained run diverged from golden: %.12s != %.12s",
				rep.StateDigest, goldenRep.StateDigest)
		}
	}

	rpt := &DeltaChainReport{StreamBudget: streamBudget}
	for _, st := range baseRep.CheckpointHistory {
		rpt.BaselineB += st.FreshBytes
		if st.DeltaShards != 0 {
			return nil, fmt.Errorf("non-delta chain reported %d delta shards", st.DeltaShards)
		}
	}
	for _, st := range deltaRep.CheckpointHistory {
		rpt.FreshShards += st.FreshShards
		rpt.DeltaShards += st.DeltaShards
		rpt.FreshBytes += st.FreshBytes
		if st.DeltaBytes > st.FreshBytes {
			return nil, fmt.Errorf("delta bytes %d exceed fresh bytes %d (must be a subset)",
				st.DeltaBytes, st.FreshBytes)
		}
		if st.PeakEncodeBytes > streamBudget {
			return nil, fmt.Errorf("delta capture's encode peak %d exceeds the %d budget",
				st.PeakEncodeBytes, streamBudget)
		}
		if st.PeakEncodeBytes > rpt.StreamPeak {
			rpt.StreamPeak = st.PeakEncodeBytes
		}
	}
	if len(deltaRep.CheckpointHistory) < minEpochs || len(baseRep.CheckpointHistory) < minEpochs {
		return nil, fmt.Errorf("only %d delta / %d baseline chained captures (want >= %d)",
			len(deltaRep.CheckpointHistory), len(baseRep.CheckpointHistory), minEpochs)
	}
	if rpt.DeltaShards == 0 {
		return nil, fmt.Errorf("page-scale low-churn chain stored no page deltas (%d fresh shards)", rpt.FreshShards)
	}
	// Compare MEAN fresh bytes per capture (capture counts may drift between
	// the runs): storing dirty pages instead of whole hot shards must shrink
	// what travels to storage.
	meanBase := float64(rpt.BaselineB) / float64(len(baseRep.CheckpointHistory))
	meanDelta := float64(rpt.FreshBytes) / float64(len(deltaRep.CheckpointHistory))
	if meanDelta >= meanBase {
		return nil, fmt.Errorf("page deltas wrote %.0f fresh bytes per capture, not below whole-shard %.0f",
			meanDelta, meanBase)
	}
	o.Logf("delta chain: %d page-delta shards, %.0f fresh B/capture vs %.0f whole-shard", rpt.DeltaShards, meanDelta, meanBase)

	// Every sealed epoch must restart into the golden state: a delta shard
	// reassembles through its base epoch byte-identically.
	n, err := restartEverySealed(&o, algo, "straggler/page-delta", deltaFS, goldenRep.StateDigest, factory)
	if err != nil {
		return nil, err
	}
	rpt.Epochs = n
	if n < minEpochs {
		return nil, fmt.Errorf("only %d sealed delta epochs (want >= %d)", n, minEpochs)
	}
	if faults, err := ckpt.VerifyStore(deltaFS); err != nil || len(faults) != 0 {
		return nil, fmt.Errorf("pristine delta chain did not verify: faults=%v err=%v", faults, err)
	}

	// Negative leg: damage the FULL BASE shard a delta patches. Restarting
	// the delta's epoch must attribute the fault to the base epoch, and
	// VerifyStore must attribute the same rank and epoch.
	if err := verifySourceCorruptionAttributed(&o, algo, deltaFS, factory); err != nil {
		return nil, err
	}
	return rpt, nil
}

// verifySourceCorruptionAttributed corrupts a source object of the newest
// partial shard in the chain (a page delta's base, a CDC object's chunk
// source — ckpt.ShardInfo.Sources names it either way) and asserts both
// restart and VerifyStore attribute the damage to the source epoch's shard.
func verifySourceCorruptionAttributed(o *Options, algo string, fs *ckpt.FileStore, factory func(int) rt.App) error {
	epochs, err := fs.Epochs()
	if err != nil {
		return err
	}
	var victim *ckpt.ShardInfo
	var src ckpt.ShardSource
	for i := len(epochs) - 1; i >= 0 && victim == nil; i-- {
		man, err := fs.GetManifest(epochs[i])
		if err != nil {
			return err
		}
		for j := range man.Shards {
			si := &man.Shards[j]
			// A partial object stored in THIS epoch (not a reused reference
			// to one) with a source in an earlier epoch.
			if _, srcs := si.Sources(); si.RefEpoch == man.Epoch && len(srcs) > 0 && srcs[0].Epoch != man.Epoch {
				victim, src = si, srcs[0]
				break
			}
		}
	}
	if victim == nil {
		return fmt.Errorf("chain holds no partial shards with cross-epoch sources to corrupt")
	}
	last := victim.RefEpoch
	path := fs.ShardPath(src.Epoch, src.Rank)
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading source shard: %w", err)
	}
	pristine := append([]byte(nil), blob...)
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	defer os.WriteFile(path, pristine, 0o644)

	_, rerr := rt.RestartFromStore(baseConfig(o, algo), fs, last, factory)
	if rerr == nil {
		return fmt.Errorf("restart from epoch %d succeeded over a corrupted source in epoch %d", last, src.Epoch)
	}
	for _, want := range []string{
		fmt.Sprintf("epoch %d", last),
		fmt.Sprintf("rank %d", victim.Rank),
		fmt.Sprintf("source shard in epoch %d corrupted", src.Epoch),
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
		return fmt.Errorf("store verify missed the corrupted source shard")
	}
	for _, f := range faults {
		if f.Rank != victim.Rank && f.Rank != src.Rank {
			return fmt.Errorf("source fault misattributed: %+v (want rank %d or %d)", f, victim.Rank, src.Rank)
		}
	}
	o.Logf("source corruption attributed: rank %d source epoch %d rank %d (partial object in epoch %d)",
		victim.Rank, src.Epoch, src.Rank, last)
	return nil
}
