package conformance

// Content-defined-chunking conformance: with CkptPlan.CDC on, an
// insertion-shifted chain must (a) actually store changed shards as CDC
// chunk objects, (b) keep reusing chunks where page deltas collapse — an
// insertion shifts every later byte, so page-granular diffing dirties almost
// the whole trailing shard while content boundaries realign one chunk past
// the edit, (c) restart digest-identical from EVERY sealed epoch (chunk
// objects reassemble through their source epochs), (d) keep the streaming
// encoder's peak within the budget, (e) survive chain compaction, and
// (f) fail attributably when a shard a reused chunk points into is damaged.

import (
	"fmt"
	"os"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/rt"
)

// CDCChainReport summarizes a verified content-defined-chunk chain, for
// callers that report (ccverify).
type CDCChainReport struct {
	Epochs       int
	CDCShards    int   // fresh shards stored as CDC chunk objects, chain total
	FreshShards  int   // all fresh shards (chunk objects included), chain total
	FreshBytes   int64 // fresh compressed bytes of the CDC chain
	DeltaFreshB  int64 // fresh compressed bytes of the same chain with page deltas
	StreamBudget int64
	StreamPeak   int64
}

func (r *CDCChainReport) String() string {
	return fmt.Sprintf("%d epochs, %d/%d fresh shards as cdc chunk objects, %d fresh bytes vs %d with page deltas; peak encode %d B under a %d B budget",
		r.Epochs, r.CDCShards, r.FreshShards, r.FreshBytes, r.DeltaFreshB,
		r.StreamPeak, r.StreamBudget)
}

// CDCStragglerConfig is the insertion-shifted chunk-scale straggler shape
// shared by the conformance leg and BenchmarkCDCCheckpoint: hot ranks carry
// a multi-chunk bulk state and periodically INSERT an element at an interior
// position, shifting every later byte of the fixed-width snapshot. Page
// deltas lose almost the whole trailing shard to the shift; content-defined
// chunks realign right after the edit.
func CDCStragglerConfig(ranks int) apps.StragglerConfig {
	cfg := apps.StragglerConfig{
		HotRanks:  2,
		ColdSteps: 4,
		HotIters:  60,
		// Cold ranks: one page of frozen state (exact whole-shard reuse).
		StateElems: 8 << 10, // 64 KiB
		// Hot ranks: ~2 MiB of bulk state — a few dozen target-size chunks,
		// so a single insertion's damage (one or two chunks) is a small
		// fraction of the shard.
		HotStateElems: 256 << 10, // 2 MiB
		// Insert every iteration so EVERY capture period contains at least
		// one shift, whatever cadence the checkpoint plan realizes: page
		// deltas then re-anchor to full shards every capture while chunk
		// reuse holds.
		InsertEvery: 1,
	}
	if cfg.HotRanks >= ranks {
		cfg.HotRanks = 1
	}
	return cfg
}

func cdcFactory(ranks int) func(int) rt.App {
	cfg := CDCStragglerConfig(ranks)
	return func(rank int) rt.App { return apps.NewStraggler(cfg, rank) }
}

// VerifyCDCChain runs the content-defined-chunking conformance sweep for one
// algorithm on the insertion-shifted straggler workload.
func VerifyCDCChain(algo string, opts Options) (*CDCChainReport, error) {
	o := opts.withDefaults()
	if err := notRunnable(DefaultChainWorkload, algo); err != nil {
		return nil, err
	}
	const minEpochs = 3
	factory := cdcFactory(o.Ranks)

	// Golden reference: the same program uninterrupted.
	goldenRep, err := rt.Run(baseConfig(&o, algo), factory)
	if err != nil {
		return nil, fmt.Errorf("cdc golden run: %w", err)
	}
	if !goldenRep.Completed || goldenRep.StateDigest == "" {
		return nil, fmt.Errorf("cdc golden run produced no digest")
	}

	tmp, err := os.MkdirTemp("", "ckpt-cdc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Baseline: the same insertion-shifted chain with page deltas — the diff
	// strategy the shift defeats.
	const streamBudget = int64(8) << 20
	deltaRep, _, err := runChain(&o, algo, goldenRep, factory, tmp+"/delta", minEpochs, rt.CkptPlan{Async: true, Incremental: true, Delta: true, StreamBudgetBytes: streamBudget})
	if err != nil {
		return nil, err
	}
	// Under test: the same pipeline with content-defined chunking.
	cdcRep, cdcFS, err := runChain(&o, algo, goldenRep, factory, tmp+"/cdc", minEpochs, rt.CkptPlan{Async: true, Incremental: true, CDC: true, StreamBudgetBytes: streamBudget})
	if err != nil {
		return nil, err
	}
	for _, rep := range []*rt.Report{deltaRep, cdcRep} {
		if rep.StateDigest != goldenRep.StateDigest {
			return nil, fmt.Errorf("cdc-leg chained run diverged from golden: %.12s != %.12s",
				rep.StateDigest, goldenRep.StateDigest)
		}
	}

	rpt := &CDCChainReport{StreamBudget: streamBudget}
	for _, st := range deltaRep.CheckpointHistory {
		rpt.DeltaFreshB += st.FreshBytes
		if st.CDCShards != 0 {
			return nil, fmt.Errorf("delta chain reported %d cdc shards", st.CDCShards)
		}
	}
	for _, st := range cdcRep.CheckpointHistory {
		rpt.FreshShards += st.FreshShards
		rpt.CDCShards += st.CDCShards
		rpt.FreshBytes += st.FreshBytes
		if st.CDCBytes > st.FreshBytes {
			return nil, fmt.Errorf("cdc bytes %d exceed fresh bytes %d (must be a subset)",
				st.CDCBytes, st.FreshBytes)
		}
		if st.DeltaShards != 0 {
			return nil, fmt.Errorf("cdc chain reported %d page-delta shards", st.DeltaShards)
		}
		if st.PeakEncodeBytes > streamBudget {
			return nil, fmt.Errorf("cdc capture's encode peak %d exceeds the %d budget",
				st.PeakEncodeBytes, streamBudget)
		}
		if st.PeakEncodeBytes > rpt.StreamPeak {
			rpt.StreamPeak = st.PeakEncodeBytes
		}
	}
	if len(cdcRep.CheckpointHistory) < minEpochs || len(deltaRep.CheckpointHistory) < minEpochs {
		return nil, fmt.Errorf("only %d cdc / %d delta chained captures (want >= %d)",
			len(cdcRep.CheckpointHistory), len(deltaRep.CheckpointHistory), minEpochs)
	}
	if rpt.CDCShards == 0 {
		return nil, fmt.Errorf("insertion-shifted chain stored no cdc chunk objects (%d fresh shards)", rpt.FreshShards)
	}
	// The shift is the whole point: page-delta reuse must collapse (almost
	// every trailing page dirties) while chunk reuse holds. Compare MEAN
	// fresh bytes per capture (capture counts may drift between the runs).
	meanDelta := float64(rpt.DeltaFreshB) / float64(len(deltaRep.CheckpointHistory))
	meanCDC := float64(rpt.FreshBytes) / float64(len(cdcRep.CheckpointHistory))
	if meanCDC*2 > meanDelta {
		return nil, fmt.Errorf("cdc wrote %.0f fresh bytes per capture, not under half of page-delta %.0f under the insertion shift",
			meanCDC, meanDelta)
	}
	o.Logf("cdc chain: %d chunk-object shards, %.0f fresh B/capture vs %.0f with page deltas", rpt.CDCShards, meanCDC, meanDelta)

	// Every sealed epoch must restart into the golden state: a chunk object
	// reassembles through its source epochs byte-identically.
	n, err := restartEverySealed(&o, algo, "straggler/cdc", cdcFS, goldenRep.StateDigest, factory)
	if err != nil {
		return nil, err
	}
	rpt.Epochs = n
	if n < minEpochs {
		return nil, fmt.Errorf("only %d sealed cdc epochs (want >= %d)", n, minEpochs)
	}
	if faults, err := ckpt.VerifyStore(cdcFS); err != nil || len(faults) != 0 {
		return nil, fmt.Errorf("pristine cdc chain did not verify: faults=%v err=%v", faults, err)
	}

	// Compaction must flatten the chunk chain into a self-contained epoch
	// that still restarts into the golden state.
	epochs, err := cdcFS.Epochs()
	if err != nil {
		return nil, err
	}
	last := epochs[len(epochs)-1]
	newMan, _, err := ckpt.CompactChain(cdcFS, last, nil)
	if err != nil {
		return nil, fmt.Errorf("compacting the cdc chain's epoch %d: %w", last, err)
	}
	if newMan.Epoch != last {
		rep, err := rt.RestartFromStore(baseConfig(&o, algo), cdcFS, newMan.Epoch, factory)
		if err != nil {
			return nil, fmt.Errorf("restart from compacted cdc epoch %d: %w", newMan.Epoch, err)
		}
		if rep.StateDigest != goldenRep.StateDigest {
			return nil, fmt.Errorf("compacted cdc epoch %d diverged: digest %.12s != golden %.12s",
				newMan.Epoch, rep.StateDigest, goldenRep.StateDigest)
		}
		o.Logf("cdc chain compacted into epoch %d: digest ok", newMan.Epoch)
	}

	// Negative leg: damage a shard that a reused chunk points INTO. Restart
	// of the chunk object's epoch must attribute the source epoch, and
	// VerifyStore must attribute the same rank.
	if err := verifySourceCorruptionAttributed(&o, algo, cdcFS, factory); err != nil {
		return nil, err
	}
	return rpt, nil
}
