package conformance

// Lifecycle conformance: GC and compaction must reclaim storage without
// changing what a restart restores. The leg asserts (a) a compacted chain
// restarts digest-identical to the pre-compaction chain, at exactly the
// depth-1 read cost; (b) GC with keep=1 after compaction leaves ONLY the
// compacted epoch's bytes on disk, reclaiming a positive amount; (c) GC
// without compaction keeps every transitively referenced epoch alive, so
// every surviving epoch still restarts into the golden state and the store
// still verifies clean; and (d) a store whose chain is broken (a referenced
// manifest deleted out from under it) is attributed as faults by
// VerifyStore and fails restart descriptively — never a panic.

import (
	"fmt"
	"math"
	"os"
	"strings"

	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// LifecycleReport summarizes a verified GC + compaction pass.
type LifecycleReport struct {
	Epochs         int // sealed epochs before compaction
	CompactedEpoch int
	ReclaimedBytes int64
	DeletedEpochs  int
	ReadVTBefore   float64 // chain-depth restart read of the deep chain
	ReadVTAfter    float64 // depth-1 restart read of the compacted epoch
}

func (r *LifecycleReport) String() string {
	return fmt.Sprintf("%d-epoch chain compacted into epoch %d, gc reclaimed %d bytes across %d epochs, restart read %.4gs -> %.4gs",
		r.Epochs, r.CompactedEpoch, r.ReclaimedBytes, r.DeletedEpochs, r.ReadVTBefore, r.ReadVTAfter)
}

// VerifyLifecycle runs the GC/compaction conformance sweep for one workload
// x algorithm. The workload should be low-churn (DefaultChainWorkload) so
// the chain actually carries cross-epoch references worth compacting.
func VerifyLifecycle(wl, algo string, opts Options) (*LifecycleReport, error) {
	o := opts.withDefaults()
	if err := notRunnable(wl, algo); err != nil {
		return nil, err
	}
	const minEpochs = 5
	goldenRep, factory, _, err := adaptedGolden(&o, wl, algo)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "ckpt-lifecycle-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// A deep incremental straggler chain: most ranks idle, so late epochs
	// reference early ones and the restart read set spans the chain.
	_, fs, err := runChain(&o, algo, goldenRep, factory, tmp+"/deep", minEpochs, rt.CkptPlan{Async: true, Incremental: true})
	if err != nil {
		return nil, err
	}
	epochs, err := fs.Epochs()
	if err != nil {
		return nil, err
	}
	if len(epochs) < minEpochs {
		return nil, fmt.Errorf("only %d sealed epochs (want >= %d)", len(epochs), minEpochs)
	}
	rpt := &LifecycleReport{Epochs: len(epochs)}
	latest := epochs[len(epochs)-1]
	man, err := fs.GetManifest(latest)
	if err != nil {
		return nil, err
	}
	deep := false
	for i := range man.Shards {
		if man.Shards[i].RefEpoch != man.Epoch {
			deep = true
			break
		}
	}
	if !deep {
		return nil, fmt.Errorf("low-churn chain's newest epoch carries no cross-epoch references")
	}

	// Pre-compaction reference restart: the digest every later restart must
	// reproduce, and the chain-depth read cost compaction must undercut.
	cfg := baseConfig(&o, algo)
	preRep, err := rt.RestartFromStore(cfg, fs, latest, factory)
	if err != nil {
		return nil, fmt.Errorf("pre-compaction restart: %w", err)
	}
	if preRep.StateDigest != goldenRep.StateDigest {
		return nil, fmt.Errorf("pre-compaction restart diverged from golden: %.12s != %.12s",
			preRep.StateDigest, goldenRep.StateDigest)
	}
	rpt.ReadVTBefore = preRep.RestartReadVT

	// Compact, then GC keeping only the compacted epoch.
	newMan, st, err := ckpt.CompactChain(fs, latest, nil)
	if err != nil {
		return nil, fmt.Errorf("compacting epoch %d: %w", latest, err)
	}
	if st == nil {
		return nil, fmt.Errorf("compaction of a referencing epoch was a no-op")
	}
	rpt.CompactedEpoch = newMan.Epoch
	gc, err := ckpt.GCStore(fs, 1)
	if err != nil {
		return nil, fmt.Errorf("gc after compaction: %w", err)
	}
	if gc.ReclaimedBytes <= 0 {
		return nil, fmt.Errorf("gc after compaction reclaimed nothing (deleted %d epochs)", gc.DeletedEpochs)
	}
	if gc.DeletedEpochs != len(epochs) {
		return nil, fmt.Errorf("gc deleted %d epochs, want the whole %d-epoch pre-compaction chain",
			gc.DeletedEpochs, len(epochs))
	}
	rpt.ReclaimedBytes = gc.ReclaimedBytes
	rpt.DeletedEpochs = gc.DeletedEpochs

	// The store must now hold ONLY the compacted epoch's bytes: one sealed
	// epoch, one epoch directory on disk.
	left, err := fs.Epochs()
	if err != nil {
		return nil, err
	}
	if len(left) != 1 || left[0] != newMan.Epoch {
		return nil, fmt.Errorf("store holds epochs %v after gc, want only the compacted %d", left, newMan.Epoch)
	}
	ents, err := os.ReadDir(fs.Root)
	if err != nil {
		return nil, err
	}
	if len(ents) != 1 {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return nil, fmt.Errorf("store root still holds %v, want only the compacted epoch's directory", names)
	}
	if faults, err := ckpt.VerifyStore(fs); err != nil || len(faults) != 0 {
		return nil, fmt.Errorf("compacted store did not verify: faults=%v err=%v", faults, err)
	}

	// Restart from every surviving epoch (the compacted one): digest
	// identical to the pre-compaction restart, read cost exactly depth-1.
	if _, err := restartEverySealed(&o, algo, wl+"/compacted", fs, preRep.StateDigest, factory); err != nil {
		return nil, err
	}
	postRep, err := rt.RestartFromStore(cfg, fs, newMan.Epoch, factory)
	if err != nil {
		return nil, fmt.Errorf("post-compaction restart: %w", err)
	}
	rpt.ReadVTAfter = postRep.RestartReadVT
	cman, err := fs.GetManifest(newMan.Epoch)
	if err != nil {
		return nil, err
	}
	m := netmodel.New(cfg.Params, cfg.PPN)
	reads := ckpt.ReadSetOf(cman)
	if len(reads) != 1 {
		return nil, fmt.Errorf("compacted epoch's read set spans %d epochs, want 1", len(reads))
	}
	nodes := (cfg.Ranks + cfg.PPN - 1) / cfg.PPN
	depth1 := m.RestartReadTime(reads[0].Bytes, nodes)
	if math.Abs(postRep.RestartReadVT-depth1) > 1e-12*math.Max(depth1, 1) {
		return nil, fmt.Errorf("compacted restart read %.9gs != depth-1 cost %.9gs", postRep.RestartReadVT, depth1)
	}
	if postRep.RestartReadVT >= preRep.RestartReadVT {
		return nil, fmt.Errorf("compaction did not shrink the restart read (%.4gs -> %.4gs)",
			preRep.RestartReadVT, postRep.RestartReadVT)
	}

	// GC without compaction: transitive liveness must keep every epoch a
	// survivor references, so every surviving epoch still restarts golden
	// and the store verifies clean.
	_, fs2, err := runChain(&o, algo, goldenRep, factory, tmp+"/gc-only", minEpochs, rt.CkptPlan{Async: true, Incremental: true})
	if err != nil {
		return nil, err
	}
	if _, err := ckpt.GCStore(fs2, 2); err != nil {
		return nil, fmt.Errorf("gc keep=2: %w", err)
	}
	if faults, err := ckpt.VerifyStore(fs2); err != nil || len(faults) != 0 {
		return nil, fmt.Errorf("gc'd chain did not verify (liveness must be transitive): faults=%v err=%v", faults, err)
	}
	if _, err := restartEverySealed(&o, algo, wl+"/gc-survivors", fs2, goldenRep.StateDigest, factory); err != nil {
		return nil, err
	}

	// Dangling-reference leg: rip a referenced epoch's manifest out from
	// under the surviving chain. VerifyStore must ATTRIBUTE the dangling
	// references (never panic), and restart must fail descriptively.
	if err := verifyDanglingRefAttributed(&o, algo, fs2, factory); err != nil {
		return nil, err
	}
	return rpt, nil
}

// verifyDanglingRefAttributed unseals (deletes the manifest of) an epoch
// that a later sealed epoch references and asserts the damage is attributed
// as store faults and a descriptive restart error.
func verifyDanglingRefAttributed(o *Options, algo string, fs *ckpt.FileStore, factory func(int) rt.App) error {
	epochs, err := fs.Epochs()
	if err != nil {
		return err
	}
	var victimRef, victimEpoch int
	found := false
	for i := len(epochs) - 1; i >= 0 && !found; i-- {
		man, err := fs.GetManifest(epochs[i])
		if err != nil {
			return err
		}
		for j := range man.Shards {
			if man.Shards[j].RefEpoch != man.Epoch {
				victimRef = man.Shards[j].RefEpoch
				victimEpoch = man.Epoch
				found = true
				break
			}
		}
	}
	if !found {
		return fmt.Errorf("gc'd chain holds no cross-epoch references to break")
	}
	if err := os.Remove(fs.ManifestPath(victimRef)); err != nil {
		return err
	}
	faults, err := ckpt.VerifyStore(fs)
	if err != nil {
		return fmt.Errorf("verify of a dangling-ref store must attribute, not fail: %w", err)
	}
	if len(faults) == 0 {
		return fmt.Errorf("verify missed the dangling reference into unsealed epoch %d", victimRef)
	}
	attributed := false
	for _, f := range faults {
		if f.RefEpoch == victimRef {
			attributed = true
		}
	}
	if !attributed {
		return fmt.Errorf("no fault names the unsealed epoch %d: %v", victimRef, faults)
	}
	_, rerr := rt.RestartFromStore(baseConfig(o, algo), fs, victimEpoch, factory)
	if rerr == nil {
		return fmt.Errorf("restart from epoch %d succeeded over a dangling reference to epoch %d", victimEpoch, victimRef)
	}
	for _, want := range []string{
		fmt.Sprintf("references epoch %d", victimRef),
		"not sealed",
	} {
		if !strings.Contains(rerr.Error(), want) {
			return fmt.Errorf("restart error %q does not attribute %q", rerr, want)
		}
	}
	o.Logf("dangling reference attributed: epoch %d references unsealed epoch %d", victimEpoch, victimRef)
	return nil
}
