package ckpt

// Tests for raw format 2 (page deltas): commit-time diffing against the
// parent's page table, fallbacks to full shards (legacy parents, geometry
// mismatches, re-anchoring), zero-dirty exact reuse, budget bounds with
// deltas on, and GC/compaction round trips. Corruption attribution is in
// partial_test.go, shared with raw format 3.

import "testing"

const testPageSize = int64(1) << 10

// pagedImage builds an n-rank image whose per-rank app state spans many
// testPageSize pages, so single-byte churn dirties a small page fraction —
// the shape the delta path exists for.
func pagedImage(n int, seed byte) *JobImage {
	ji := &JobImage{Algorithm: "cc", Ranks: n, PPN: 2, CaptureVT: 1.5, Images: make([]RankImage, n)}
	for r := 0; r < n; r++ {
		app := make([]byte, 16<<10+r*64)
		for i := range app {
			app[i] = seed + byte(r) + byte(i%251)
		}
		ji.Images[r] = RankImage{
			Rank:    r,
			Desc:    Descriptor{Kind: ParkPreCollective, Coll: &CollDesc{Kind: 1, Bench: true, VirtSize: 8}},
			App:     app,
			Proto:   []byte{seed, byte(r)},
			ClockVT: 1.0 + float64(r)/10,
		}
	}
	return ji
}

// commitPaged hashes with a page table and commits, the exact sequence the
// coordinator runs with Delta on.
func commitPaged(t testing.TB, store Store, epoch int, parent *Manifest, img *JobImage) (*Manifest, *CommitStats) {
	t.Helper()
	sums, err := HashCapturePaged(img, testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	man, st, err := CommitStreamed(store, epoch, parent, img, sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	return man, st
}

func shardOf(t *testing.T, man *Manifest, rank int) *ShardInfo {
	t.Helper()
	for i := range man.Shards {
		if man.Shards[i].Rank == rank {
			return &man.Shards[i]
		}
	}
	t.Fatalf("rank %d not in manifest for epoch %d", rank, man.Epoch)
	return nil
}

// TestPageDeltaCommitRoundTrip: a changed rank whose parent carries a page
// table is stored as a delta object holding only its dirty pages, anchored
// at the chain's full base shard; every epoch loads back bit-identically,
// and a second delta re-anchors at the same base (deltas never chain).
func TestPageDeltaCommitRoundTrip(t *testing.T) {
	fs := mustFileStore(t)
	img0 := pagedImage(4, 1)
	man0, st0 := commitPaged(t, fs, 0, nil, img0)
	if man0.Version != ManifestV4 {
		t.Fatalf("paged commit sealed version %d, want %d", man0.Version, ManifestV4)
	}
	if st0.FreshShards != 4 || st0.DeltaShards != 0 {
		t.Fatalf("epoch 0 must be all full shards: %+v", st0)
	}
	for _, si := range man0.Shards {
		if si.PageSize != testPageSize || len(si.PageSums) == 0 {
			t.Fatalf("rank %d fresh shard carries no page table: %+v", si.Rank, si)
		}
	}

	// Epoch 1: one byte of rank 1's bulk state flips — one dirty page.
	img1 := pagedImage(4, 1)
	img1.Images[1].App[5000] ^= 0xFF
	img1.CaptureVT = 2.5
	man1, st1 := commitPaged(t, fs, 1, man0, img1)
	if st1.FreshShards != 1 || st1.ReusedShards != 3 || st1.DeltaShards != 1 {
		t.Fatalf("epoch 1 stats: %+v", st1)
	}
	if st1.DeltaBytes != st1.FreshBytes {
		t.Fatalf("the only fresh shard is a delta, so delta bytes %d must equal fresh bytes %d",
			st1.DeltaBytes, st1.FreshBytes)
	}
	d1 := shardOf(t, man1, 1)
	if d1.RawFormat != RawFormatPageDelta || d1.BaseEpoch != 0 || d1.RefEpoch != 1 {
		t.Fatalf("epoch 1 delta entry: %+v", d1)
	}
	full0 := shardOf(t, man0, 1)
	if d1.BaseSize != full0.Size {
		t.Fatalf("delta records base size %d, full shard is %d", d1.BaseSize, full0.Size)
	}
	if n := len(d1.DeltaPages); n == 0 || n > 2 {
		t.Fatalf("single-byte churn dirtied %d pages: %v", n, d1.DeltaPages)
	}
	if d1.Size >= full0.Size {
		t.Fatalf("delta object %d B not smaller than the full shard %d B", d1.Size, full0.Size)
	}
	got1, err := LoadJobImage(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got1)
	ri, err := ExtractRankFromStore(fs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(ri.App) != string(img1.Images[1].App) {
		t.Fatal("single-rank extract through the delta diverged")
	}
	// The restart read set must span the delta's base epoch, not just the
	// restart epoch.
	sealed1, err := fs.GetManifest(1)
	if err != nil {
		t.Fatal(err)
	}
	reads := ReadSetOf(sealed1)
	if len(reads) != 2 || reads[0].Epoch != 1 || reads[1].Epoch != 0 {
		t.Fatalf("delta epoch read set %+v, want epochs [1 0]", reads)
	}

	// Epoch 2: rank 1 churns a different page. The new delta must anchor at
	// the FULL shard in epoch 0 (never at epoch 1's delta) and carry epoch
	// 1's dirty pages along so reconstruction against the base is complete.
	img2 := pagedImage(4, 1)
	img2.Images[1].App[5000] ^= 0xFF
	img2.Images[1].App[9000] ^= 0xAA
	img2.CaptureVT = 3.5
	man2, st2 := commitPaged(t, fs, 2, man1, img2)
	if st2.DeltaShards != 1 {
		t.Fatalf("epoch 2 stats: %+v", st2)
	}
	d2 := shardOf(t, man2, 1)
	if d2.BaseEpoch != 0 {
		t.Fatalf("second delta anchored at epoch %d, want the full base 0", d2.BaseEpoch)
	}
	carried := make(map[int32]bool, len(d2.DeltaPages))
	for _, p := range d2.DeltaPages {
		carried[p] = true
	}
	for _, p := range d1.DeltaPages {
		if !carried[p] {
			t.Fatalf("epoch 2 delta dropped parent dirty page %d: %v", p, d2.DeltaPages)
		}
	}
	if len(d2.DeltaPages) <= len(d1.DeltaPages) {
		t.Fatalf("epoch 2 delta pages %v not a strict superset of %v", d2.DeltaPages, d1.DeltaPages)
	}
	got2, err := LoadJobImage(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img2, got2)
	if faults, err := VerifyStore(fs); err != nil || len(faults) != 0 {
		t.Fatalf("delta chain did not verify: faults=%v err=%v", faults, err)
	}
}

// TestZeroDirtyEpochIsExactReuse: identical logical bytes under delta mode
// are a reference to the parent's object — never an empty delta.
func TestZeroDirtyEpochIsExactReuse(t *testing.T) {
	fs := mustFileStore(t)
	img0 := pagedImage(4, 2)
	man0, _ := commitPaged(t, fs, 0, nil, img0)

	img1 := pagedImage(4, 2)
	img1.CaptureVT = 9
	for r := range img1.Images {
		img1.Images[r].ClockVT += 1 // clocks ride the manifest, not the shard
	}
	man1, st1 := commitPaged(t, fs, 1, man0, img1)
	if st1.FreshShards != 0 || st1.ReusedShards != 4 || st1.DeltaShards != 0 {
		t.Fatalf("zero-dirty epoch stats: %+v", st1)
	}
	for _, si := range man1.Shards {
		if si.RefEpoch != 0 || si.RawFormat != RawFormatChunked {
			t.Fatalf("zero-dirty rank %d not a plain reference: %+v", si.Rank, si)
		}
	}
	got, err := LoadJobImage(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got)

	// A reused reference TO a delta copies the whole delta identity: churn
	// rank 1 (delta in epoch 2), then freeze it (reference in epoch 3).
	img2 := pagedImage(4, 2)
	img2.Images[1].App[300] ^= 0x55
	man2, _ := commitPaged(t, fs, 2, man1, img2)
	img3 := pagedImage(4, 2)
	img3.Images[1].App[300] ^= 0x55
	man3, st3 := commitPaged(t, fs, 3, man2, img3)
	if st3.FreshShards != 0 {
		t.Fatalf("frozen epoch stats: %+v", st3)
	}
	ref := shardOf(t, man3, 1)
	if ref.RawFormat != RawFormatPageDelta || ref.RefEpoch != 2 || ref.BaseEpoch != 0 {
		t.Fatalf("reference to a delta lost its geometry: %+v", ref)
	}
	got3, err := LoadJobImage(fs, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img3, got3)
}

// TestDeltaFallbacksToFullShard: every ineligible parent shape must produce
// a clean self-contained full shard, never a bogus delta.
func TestDeltaFallbacksToFullShard(t *testing.T) {
	t.Run("unpaged-parent", func(t *testing.T) {
		// The parent committed without page hashing (a chain started before
		// -delta was turned on): no page table, so the changed rank rewrites
		// in full.
		fs := mustFileStore(t)
		img0 := pagedImage(4, 3)
		sums, err := HashCapture(img0)
		if err != nil {
			t.Fatal(err)
		}
		man0, _, err := CommitStreamed(fs, 0, nil, img0, sums, nil)
		if err != nil {
			t.Fatal(err)
		}
		if man0.Version != ManifestV3 {
			t.Fatalf("unpaged commit sealed version %d", man0.Version)
		}
		img1 := pagedImage(4, 3)
		img1.Images[2].App[100] ^= 0xFF
		man1, st1 := commitPaged(t, fs, 1, man0, img1)
		if st1.DeltaShards != 0 || st1.FreshShards != 1 {
			t.Fatalf("unpaged parent produced a delta: %+v", st1)
		}
		if si := shardOf(t, man1, 2); si.RawFormat != RawFormatChunked {
			t.Fatalf("fallback shard in format %d", si.RawFormat)
		}
		got, err := LoadJobImage(fs, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameImages(t, img1, got)
	})

	t.Run("page-size-mismatch", func(t *testing.T) {
		fs := mustFileStore(t)
		img0 := pagedImage(4, 4)
		sums0, err := HashCapturePaged(img0, testPageSize)
		if err != nil {
			t.Fatal(err)
		}
		man0, _, err := CommitStreamed(fs, 0, nil, img0, sums0, nil)
		if err != nil {
			t.Fatal(err)
		}
		img1 := pagedImage(4, 4)
		img1.Images[0].App[100] ^= 0xFF
		sums1, err := HashCapturePaged(img1, testPageSize*2)
		if err != nil {
			t.Fatal(err)
		}
		_, st1, err := CommitStreamed(fs, 1, man0, img1, sums1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st1.DeltaShards != 0 {
			t.Fatalf("page-size mismatch still stored a delta: %+v", st1)
		}
		if _, err := LoadJobImage(fs, 1); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("legacy-gob-parent", func(t *testing.T) {
		// deltaEligible is the gate: a parent in the retired whole-gob format
		// (0) has no positional layout to diff against regardless of what
		// else it carries.
		sums := &ShardSums{Sums: []uint64{7}, Sizes: []int64{100},
			PageSize: testPageSize, PageSums: [][]uint32{{1, 2}}}
		p := &ShardInfo{RawFormat: 0, PageSize: testPageSize,
			PageSums: []uint32{3, 4}, RawSize: 100}
		if deltaEligible(p, sums, 0) {
			t.Fatal("legacy gob parent deemed delta-eligible")
		}
		p.RawFormat = RawFormatChunked
		if !deltaEligible(p, sums, 0) {
			t.Fatal("chunked parent with a matching table must be eligible")
		}
		if deltaEligible(nil, sums, 0) {
			t.Fatal("nil parent deemed delta-eligible")
		}
		p.RawSize = 101 // grew: page diffs are positional
		if deltaEligible(p, sums, 0) {
			t.Fatal("length-changed parent deemed delta-eligible")
		}
		p.RawSize = 100
		p.PageSums = nil
		if deltaEligible(p, sums, 0) {
			t.Fatal("tableless parent deemed delta-eligible")
		}
	})

	t.Run("re-anchor-on-heavy-churn", func(t *testing.T) {
		// Past half the pages dirty, the delta (plus the base read at
		// restart) stops paying: the differ must write a full shard.
		fs := mustFileStore(t)
		img0 := pagedImage(4, 5)
		man0, _ := commitPaged(t, fs, 0, nil, img0)
		img1 := pagedImage(4, 5)
		for i := range img1.Images[3].App {
			img1.Images[3].App[i] ^= 0xFF
		}
		man1, st1 := commitPaged(t, fs, 1, man0, img1)
		if st1.DeltaShards != 0 || st1.FreshShards != 1 {
			t.Fatalf("heavy churn still stored a delta: %+v", st1)
		}
		si := shardOf(t, man1, 3)
		if si.RawFormat != RawFormatChunked || si.RefEpoch != 1 {
			t.Fatalf("re-anchored shard: %+v", si)
		}
		// The fresh full shard becomes the NEW anchor: a later small churn
		// deltas against epoch 1, not epoch 0.
		img2 := pagedImage(4, 5)
		for i := range img2.Images[3].App {
			img2.Images[3].App[i] ^= 0xFF
		}
		img2.Images[3].App[64] ^= 0x01
		man2, st2 := commitPaged(t, fs, 2, man1, img2)
		if st2.DeltaShards != 1 {
			t.Fatalf("post-re-anchor churn stats: %+v", st2)
		}
		if d := shardOf(t, man2, 3); d.BaseEpoch != 1 {
			t.Fatalf("delta anchored at epoch %d, want the re-anchored 1", d.BaseEpoch)
		}
		got, err := LoadJobImage(fs, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameImages(t, img2, got)
	})
}

// TestDeltaCommitBudgetBounded: with deltas on, the streaming encoder's
// high-water mark stays within an arbitrarily tight budget, down to the
// serial floor.
func TestDeltaCommitBudgetBounded(t *testing.T) {
	for name, capBytes := range map[string]int64{
		"tight": 1,
		"one":   shardStreamFootprint,
		"roomy": 64 << 20,
	} {
		t.Run(name, func(t *testing.T) {
			fs := mustFileStore(t)
			img0 := pagedImage(8, 7)
			man0, _ := commitPaged(t, fs, 0, nil, img0)
			img1 := pagedImage(8, 7)
			for r := range img1.Images {
				img1.Images[r].App[200+r] ^= 0xFF
			}
			sums, err := HashCapturePaged(img1, testPageSize)
			if err != nil {
				t.Fatal(err)
			}
			budget := NewStreamBudget(capBytes)
			_, st, err := CommitStreamed(fs, 1, man0, img1, sums, budget)
			if err != nil {
				t.Fatal(err)
			}
			if st.DeltaShards == 0 {
				t.Fatalf("budgeted delta commit stored no deltas: %+v", st)
			}
			peak := budget.TakePeak()
			if peak <= 0 || peak > budget.cap {
				t.Fatalf("peak %d outside (0, %d]", peak, budget.cap)
			}
			got, err := LoadJobImage(fs, 1)
			if err != nil {
				t.Fatal(err)
			}
			sameImages(t, img1, got)
		})
	}
}

// TestDeltaChainGCAndCompaction: GC's liveness trace must follow BaseEpoch
// (a delta is useless without its base), and compaction must flatten deltas
// into self-contained full shards that survive GC of the whole chain.
func TestDeltaChainGCAndCompaction(t *testing.T) {
	buildChain := func(t *testing.T) (*FileStore, *JobImage) {
		fs := mustFileStore(t)
		img0 := pagedImage(4, 8)
		man0, _ := commitPaged(t, fs, 0, nil, img0)
		img1 := pagedImage(4, 8)
		img1.Images[1].App[5000] ^= 0xFF
		man1, _ := commitPaged(t, fs, 1, man0, img1)
		img2 := pagedImage(4, 8)
		img2.Images[1].App[5000] ^= 0xFF
		img2.Images[1].App[9000] ^= 0xAA
		man2, st2 := commitPaged(t, fs, 2, man1, img2)
		if st2.DeltaShards == 0 || shardOf(t, man2, 1).BaseEpoch != 0 {
			t.Fatalf("chain fixture stored no base-anchored delta: %+v", st2)
		}
		return fs, img2
	}

	t.Run("gc-keeps-delta-base", func(t *testing.T) {
		fs, img2 := buildChain(t)
		gc, err := GCStore(fs, 1)
		if err != nil {
			t.Fatal(err)
		}
		left, err := fs.Epochs()
		if err != nil {
			t.Fatal(err)
		}
		// Epoch 2's delta needs base epoch 0; epoch 1 holds nothing epoch 2
		// reads (its delta is superseded) and must be the one reclaimed.
		if len(left) != 2 || left[0] != 0 || left[1] != 2 {
			t.Fatalf("gc left epochs %v, want [0 2] (deleted %d)", left, gc.DeletedEpochs)
		}
		if faults, err := VerifyStore(fs); err != nil || len(faults) != 0 {
			t.Fatalf("gc'd delta chain did not verify: faults=%v err=%v", faults, err)
		}
		got, err := LoadJobImage(fs, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameImages(t, img2, got)
	})

	t.Run("compaction-flattens-deltas", func(t *testing.T) {
		fs, img2 := buildChain(t)
		newMan, st, err := CompactChain(fs, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil {
			t.Fatal("compaction of a delta chain was a no-op")
		}
		for _, si := range newMan.Shards {
			if si.RawFormat == RawFormatPageDelta || si.RefEpoch != newMan.Epoch {
				t.Fatalf("compacted rank %d not flattened: %+v", si.Rank, si)
			}
		}
		if _, err := GCStore(fs, 1); err != nil {
			t.Fatal(err)
		}
		left, err := fs.Epochs()
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 1 || left[0] != newMan.Epoch {
			t.Fatalf("epochs after compaction+gc: %v", left)
		}
		got, err := LoadJobImage(fs, newMan.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		sameImages(t, img2, got)
		if faults, err := VerifyStore(fs); err != nil || len(faults) != 0 {
			t.Fatalf("compacted delta chain did not verify: faults=%v err=%v", faults, err)
		}
	})
}
