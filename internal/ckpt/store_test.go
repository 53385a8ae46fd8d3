package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mana/internal/netmodel"
)

// truncateShard shrinks a FileStore shard file to frac of its length (a torn
// write: the writer died, or the filesystem lost the tail) and returns a
// restore function.
func truncateShard(t *testing.T, fs *FileStore, epoch, rank int, frac float64) func() {
	t.Helper()
	path := fs.ShardPath(epoch, rank)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:int(float64(len(blob))*frac)], 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// testImage builds a synthetic n-rank job image whose per-rank state is
// derived from seed; epoch-over-epoch tests mutate individual ranks.
func testImage(n int, seed byte) *JobImage {
	ji := &JobImage{Algorithm: "cc", Ranks: n, PPN: 2, CaptureVT: 1.5, Images: make([]RankImage, n)}
	for r := 0; r < n; r++ {
		app := make([]byte, 64+r)
		for i := range app {
			app[i] = seed + byte(r) + byte(i)
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

func sameImages(t *testing.T, a, b *JobImage) {
	t.Helper()
	if len(a.Images) != len(b.Images) {
		t.Fatalf("rank counts differ: %d vs %d", len(a.Images), len(b.Images))
	}
	for r := range a.Images {
		x, y := &a.Images[r], &b.Images[r]
		if x.Rank != y.Rank || x.ClockVT != y.ClockVT ||
			string(x.App) != string(y.App) || string(x.Proto) != string(y.Proto) ||
			x.Desc.Kind != y.Desc.Kind {
			t.Fatalf("rank %d images differ:\n%+v\n%+v", r, x, y)
		}
	}
}

// TestPublishFileKeepsOldFile: PublishFile (ccimg extract -o's writer)
// replaces a file only once the new bytes are whole and synced, so a write
// that fails — here because a directory occupies the temp name — leaves the
// previous file byte for byte.
func TestPublishFileKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rank.raw")
	old := bytes.Repeat([]byte{1}, 4096)
	if err := PublishFile(path, old); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(path, []byte("new")); err == nil {
		t.Fatal("PublishFile succeeded with its temp name taken")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("failed PublishFile changed the file on disk (err %v)", err)
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("second PublishFile did not replace the file: %q (err %v)", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestStoreCommitRoundTrip(t *testing.T) {
	for name, store := range map[string]Store{"mem": NewMemStore(), "file": mustFileStore(t)} {
		t.Run(name, func(t *testing.T) {
			img := testImage(4, 1)
			man, st, err := CommitCapture(store, 0, nil, img)
			if err != nil {
				t.Fatal(err)
			}
			if man.Version != ManifestV3 || man.Epoch != 0 || man.Parent != -1 {
				t.Fatalf("bad manifest header: %+v", man)
			}
			if st.FreshShards != 4 || st.ReusedShards != 0 {
				t.Fatalf("bad commit stats: %+v", st)
			}
			got, err := LoadJobImage(store, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameImages(t, img, got)
			if got.CaptureVT != img.CaptureVT || got.Algorithm != img.Algorithm {
				t.Fatalf("job header lost: %+v", got)
			}
		})
	}
}

// putShard stores a whole shard blob through the store's stream.
func putShard(s Store, epoch, rank int, blob []byte) error {
	w, err := s.PutShardStream(epoch, rank)
	if err != nil {
		return err
	}
	return writeClose(w, blob)
}

func mustFileStore(t *testing.T) *FileStore {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestIncrementalReuseAndChainCollapse: unchanged ranks are recorded as
// references (collapsed to the epoch that physically wrote the bytes), and
// load resolves them — including the per-epoch clock override.
func TestIncrementalReuseAndChainCollapse(t *testing.T) {
	fs := mustFileStore(t)
	img0 := testImage(4, 1)
	man0, _, err := CommitCapture(fs, 0, nil, img0)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1: only rank 2's state changes; every clock advances.
	img1 := testImage(4, 1)
	img1.CaptureVT = 2.5
	for r := range img1.Images {
		img1.Images[r].ClockVT += 1.0
	}
	img1.Images[2].App[0] ^= 0xFF
	man1, st1, err := CommitCapture(fs, 1, man0, img1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.FreshShards != 1 || st1.ReusedShards != 3 {
		t.Fatalf("epoch 1 stats: %+v", st1)
	}
	for _, si := range man1.Shards {
		want := 0
		if si.Rank == 2 {
			want = 1
		}
		if si.RefEpoch != want {
			t.Fatalf("rank %d references epoch %d, want %d", si.Rank, si.RefEpoch, want)
		}
	}
	got1, err := LoadJobImage(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got1) // clocks must come from epoch 1's manifest

	// Epoch 2: nothing changes; references must collapse to epoch 0/1, not
	// point at epoch 1's references.
	img2 := testImage(4, 1)
	img2.Images[2].App[0] ^= 0xFF
	img2.CaptureVT = 3.5
	for r := range img2.Images {
		img2.Images[r].ClockVT += 2.0
	}
	man2, st2, err := CommitCapture(fs, 2, man1, img2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.FreshShards != 0 || st2.ReusedShards != 4 {
		t.Fatalf("epoch 2 stats: %+v", st2)
	}
	for _, si := range man2.Shards {
		want := 0
		if si.Rank == 2 {
			want = 1
		}
		if si.RefEpoch != want {
			t.Fatalf("rank %d chain not collapsed: references epoch %d, want %d", si.Rank, si.RefEpoch, want)
		}
	}
	got2, err := LoadJobImage(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img2, got2)

	if faults, err := VerifyStore(fs); err != nil || len(faults) != 0 {
		t.Fatalf("chain did not verify: faults=%v err=%v", faults, err)
	}

	// Corrupt the referenced parent shard (rank 1's bytes live in epoch 0):
	// loading epoch 2 must fail naming both the manifest epoch and the
	// referenced epoch, and VerifyStore must attribute the fault to every
	// epoch whose chain crosses it.
	path := fs.ShardPath(0, 1)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadJobImage(fs, 2)
	if err == nil {
		t.Fatal("load of a chain with a corrupted parent shard succeeded")
	}
	for _, want := range []string{"epoch 2", "rank 1", "stored in epoch 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	faults, err := VerifyStore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 3 { // epochs 0, 1, 2 all resolve rank 1 to the damaged blob
		t.Fatalf("expected 3 attributed faults, got %v", faults)
	}
	for _, f := range faults {
		if f.Rank != 1 || f.RefEpoch != 0 {
			t.Fatalf("fault not attributed to rank 1 / epoch 0: %+v", f)
		}
	}
}

// TestExtractRankFromStore: single-rank extraction resolves only that
// rank's shard (through the reference chain) and applies the epoch's clock.
func TestExtractRankFromStore(t *testing.T) {
	fs := mustFileStore(t)
	img0 := testImage(4, 5)
	man0, _, err := CommitCapture(fs, 0, nil, img0)
	if err != nil {
		t.Fatal(err)
	}
	img1 := testImage(4, 5)
	for r := range img1.Images {
		img1.Images[r].ClockVT += 7
	}
	img1.Images[0].App[0] ^= 0xFF
	if _, _, err := CommitCapture(fs, 1, man0, img1); err != nil {
		t.Fatal(err)
	}
	// Rank 3's bytes live in epoch 0, but the extraction from epoch 1 must
	// report epoch 1's clock.
	ri, err := ExtractRankFromStore(fs, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Rank != 3 || ri.ClockVT != img1.Images[3].ClockVT {
		t.Fatalf("extracted rank %d clock %g, want rank 3 clock %g", ri.Rank, ri.ClockVT, img1.Images[3].ClockVT)
	}
	if _, err := ExtractRankFromStore(fs, 1, 9); err == nil {
		t.Fatal("extraction of a missing rank succeeded")
	}
}

// TestUnsealedEpochIgnored: a crash between shard writes and the manifest
// seal must leave an epoch invisible.
func TestUnsealedEpochIgnored(t *testing.T) {
	fs := mustFileStore(t)
	img := testImage(2, 9)
	if _, _, err := CommitCapture(fs, 0, nil, img); err != nil {
		t.Fatal(err)
	}
	if err := putShard(fs, 1, 0, []byte("partial")); err != nil {
		t.Fatal(err)
	}
	epochs, err := fs.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != 0 {
		t.Fatalf("unsealed epoch surfaced: %v", epochs)
	}
	if e, err := LatestEpoch(fs); err != nil || e != 0 {
		t.Fatalf("latest epoch %d err %v", e, err)
	}
}

// TestSealMetering: a sealed epoch's bytes are converted to modeled write
// time; incremental epochs charge only fresh bytes, and the overlapped
// split stalls only the open latency.
func TestSealMetering(t *testing.T) {
	params := netmodel.EthernetLike()
	model := netmodel.New(params, 2)
	s := newPinSealer(t, pinPlan{params: params})

	man0, full := s.seal(t, "", 0, nil, testImage(4, 3))
	if full.Total <= params.StorageLatency {
		t.Fatalf("full epoch cost %+v not above latency", full)
	}
	if full.Stall != full.Total || full.Overlap != 0 {
		t.Fatalf("default split must stall everything: %+v", full)
	}

	// Incremental + overlapped epoch: nothing fresh, so the transfer charge
	// collapses to the latency floor; the stall is just the latency.
	s.c.Plan.Async = true
	_, incr := s.seal(t, "", 1, man0, testImage(4, 3))
	if incr.Total >= full.Total {
		t.Fatalf("incremental epoch %+v not cheaper than full %+v", incr, full)
	}
	if incr.Stall != params.StorageLatency {
		t.Fatalf("overlapped stall %g, want latency %g", incr.Stall, params.StorageLatency)
	}

	// Padded charging: every fresh shard bills PaddedBytesPerRank.
	s.c.Plan.Async = false
	img2 := testImage(4, 4)
	img2.PaddedBytesPerRank = 1 << 20
	_, padded := s.seal(t, "", 2, nil, img2)
	want := model.WriteCost(4<<20, 2, false)
	if padded != want {
		t.Fatalf("padded cost %+v, want %+v", padded, want)
	}
}

// TestReadSetOf: the restart read set groups resolved shards by the epoch
// holding the bytes — restart epoch first, older epochs newest-first — and
// prices padded manifests on the padded basis.
func TestReadSetOf(t *testing.T) {
	man := &Manifest{
		Version: ManifestV3, Epoch: 5, Parent: 4,
		Shards: []ShardInfo{
			{Rank: 0, RefEpoch: 5, Size: 100},
			{Rank: 1, RefEpoch: 2, Size: 40},
			{Rank: 2, RefEpoch: 4, Size: 30},
			{Rank: 3, RefEpoch: 2, Size: 10},
		},
	}
	reads := ReadSetOf(man)
	want := []netmodel.EpochRead{
		{Epoch: 5, Shards: 1, Bytes: 100},
		{Epoch: 4, Shards: 1, Bytes: 30},
		{Epoch: 2, Shards: 2, Bytes: 50},
	}
	if len(reads) != len(want) {
		t.Fatalf("read set %+v, want %+v", reads, want)
	}
	for i := range want {
		if reads[i] != want[i] {
			t.Fatalf("read set %+v, want %+v", reads, want)
		}
	}

	// All-reference epoch: the restart epoch still leads with zero shards.
	man.Shards[0].RefEpoch = 4
	reads = ReadSetOf(man)
	if reads[0].Epoch != 5 || reads[0].Shards != 0 || reads[0].Bytes != 0 {
		t.Fatalf("all-reference epoch not leading: %+v", reads)
	}

	// Padded manifests price every shard at the padded size.
	man.PaddedBytesPerRank = 1 << 20
	var total int64
	for _, r := range ReadSetOf(man) {
		total += r.Bytes
	}
	if total != 4<<20 {
		t.Fatalf("padded read set bytes %d, want %d", total, int64(4)<<20)
	}
}

// commitChain seals a 3-epoch incremental chain into a fresh FileStore:
// epoch 0 full, epoch 1 changes only rank 1, epoch 2 changes only rank 0 —
// so every later epoch references parents.
func commitChain(t *testing.T) *FileStore {
	t.Helper()
	fs := mustFileStore(t)
	man, _, err := CommitCapture(fs, 0, nil, testImage(4, 7))
	if err != nil {
		t.Fatal(err)
	}

	img1 := testImage(4, 7)
	img1.Images[1].App[0] ^= 0xFF
	img1.CaptureVT += 1
	if man, _, err = CommitCapture(fs, 1, man, img1); err != nil {
		t.Fatal(err)
	}

	img2 := testImage(4, 7)
	img2.Images[1].App[0] ^= 0xFF // unchanged since epoch 1: reused from it
	img2.Images[0].App[0] ^= 0xAA
	img2.CaptureVT += 2
	if _, _, err = CommitCapture(fs, 2, man, img2); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestStreamingCommitMatchesBlobPath: the streamed store objects must be
// byte-identical to what the blob adapters report, and the manifest's
// writer-stamped sizes/checksums must agree with the stored bytes.
func TestStreamingCommitMatchesBlobPath(t *testing.T) {
	for name, store := range map[string]Store{"mem": NewMemStore(), "file": mustFileStore(t)} {
		t.Run(name, func(t *testing.T) {
			img := testImage(4, 2)
			man, _, err := CommitCapture(store, 0, nil, img)
			if err != nil {
				t.Fatal(err)
			}
			for _, si := range man.Shards {
				blob, err := store.GetShard(0, si.Rank)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(blob)) != si.Size {
					t.Fatalf("rank %d: stored %d bytes, manifest says %d", si.Rank, len(blob), si.Size)
				}
				if got := Sum64(blob); got != si.Checksum {
					t.Fatalf("rank %d: stored checksum %x, manifest says %x", si.Rank, got, si.Checksum)
				}
				if si.RawFormat != RawFormatChunked {
					t.Fatalf("rank %d: fresh shard written in format %d", si.Rank, si.RawFormat)
				}
				// The blob adapters and the stream read the same bytes.
				ri, err := ExtractRankFromStore(store, 0, si.Rank)
				if err != nil {
					t.Fatal(err)
				}
				if ri.Rank != si.Rank {
					t.Fatalf("rank %d shard holds rank %d", si.Rank, ri.Rank)
				}
			}
		})
	}
}

// TestTornShardWriteAttributed: a FileStore shard truncated after its epoch
// sealed (a torn write surfacing post-crash) must be attributed by
// VerifyStore and by restart loads to the exact (epoch, rank, ref-epoch)
// with a corruption diagnostic — never an opaque failure or a panic.
func TestTornShardWriteAttributed(t *testing.T) {
	fs := commitChain(t)
	for name, frac := range map[string]float64{"half": 0.5, "empty": 0, "one-byte": 0.01} {
		t.Run(name, func(t *testing.T) {
			restore := truncateShard(t, fs, 0, 2, frac) // rank 2's bytes live in epoch 0
			defer restore()

			faults, err := VerifyStore(fs)
			if err != nil {
				t.Fatal(err)
			}
			if len(faults) == 0 {
				t.Fatal("torn shard not detected")
			}
			for _, f := range faults {
				if f.Rank != 2 || f.RefEpoch != 0 {
					t.Fatalf("torn write misattributed: %+v (want rank 2, bytes in epoch 0)", f)
				}
				if !strings.Contains(f.Err.Error(), "corrupted") {
					t.Fatalf("torn write not reported as corruption: %v", f.Err)
				}
			}
			// Every epoch resolves rank 2 to the torn blob.
			if len(faults) != 3 {
				t.Fatalf("want a fault per referencing epoch (3), got %+v", faults)
			}
			_, lerr := LoadJobImage(fs, 2)
			if lerr == nil {
				t.Fatal("load over a torn shard succeeded")
			}
			for _, want := range []string{"epoch 2", "rank 2", "stored in epoch 0", "corrupted"} {
				if !strings.Contains(lerr.Error(), want) {
					t.Fatalf("load error %q does not mention %q", lerr, want)
				}
			}
		})
	}

	// Trailing garbage is torn in the other direction — the stored object no
	// longer matches what was checksummed at commit, even though the
	// compressed stream inside still decodes.
	t.Run("appended", func(t *testing.T) {
		path := fs.ShardPath(0, 2)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("junk")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		defer func() {
			blob, _ := os.ReadFile(path)
			os.WriteFile(path, blob[:len(blob)-4], 0o644)
		}()
		if _, err := LoadJobImage(fs, 0); err == nil || !strings.Contains(err.Error(), "corrupted") {
			t.Fatalf("trailing garbage not reported as corruption: %v", err)
		}
	})
}

// TestChainBrokenParentAttributed: resolving a chain whose referenced
// parent epoch is missing or unsealed must return a descriptive error from
// every entry point — load and single-rank extract — and a per-shard fault
// from VerifyStore.
func TestChainBrokenParentAttributed(t *testing.T) {
	wantMsg := "references epoch 0, which is not sealed"
	check := func(t *testing.T, fs *FileStore) {
		t.Helper()
		if _, err := LoadJobImage(fs, 2); err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Fatalf("load error %v does not explain the broken chain", err)
		}
		// Rank 2 never changed after epoch 0, so its extract crosses the
		// broken reference.
		if _, err := ExtractRankFromStore(fs, 2, 2); err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Fatalf("extract error %v does not explain the broken chain", err)
		}
		faults, err := VerifyStore(fs)
		if err != nil {
			t.Fatal(err)
		}
		if len(faults) == 0 {
			t.Fatal("verify missed the broken chain")
		}
		for _, f := range faults {
			if f.RefEpoch != 0 {
				t.Fatalf("fault misattributed: %+v (want a reference into epoch 0)", f)
			}
			if !strings.Contains(f.Err.Error(), "not sealed") {
				t.Fatalf("fault %v does not explain the missing seal", f.Err)
			}
		}
	}

	t.Run("unsealed", func(t *testing.T) {
		// The parent's shards still exist on disk — only its seal is gone
		// (a lost manifest). Reading them anyway would restore state nothing
		// vouches for.
		fs := commitChain(t)
		if err := os.Remove(fs.ManifestPath(0)); err != nil {
			t.Fatal(err)
		}
		check(t, fs)
	})
	t.Run("missing", func(t *testing.T) {
		fs := commitChain(t)
		if err := os.RemoveAll(fs.EpochDir(0)); err != nil {
			t.Fatal(err)
		}
		check(t, fs)
	})
}

// TestCommitStreamedBudgetBounded: commits succeed under an arbitrarily
// tight budget (a single stream always fits), and the budget's high-water
// mark never exceeds its capacity.
func TestCommitStreamedBudgetBounded(t *testing.T) {
	for name, capBytes := range map[string]int64{
		"tight":    1, // below one stream's footprint: degrades to serial
		"one":      shardStreamFootprint,
		"roomy":    64 << 20,
		"default0": 0,
	} {
		t.Run(name, func(t *testing.T) {
			budget := NewStreamBudget(capBytes)
			store := NewMemStore()
			img := testImage(16, 3)
			sums, err := HashCapture(img)
			if err != nil {
				t.Fatal(err)
			}
			man, st, err := CommitStreamed(store, 0, nil, img, sums, budget)
			if err != nil {
				t.Fatal(err)
			}
			if st.FreshShards != 16 {
				t.Fatalf("commit stats: %+v", st)
			}
			peak := budget.TakePeak()
			if peak <= 0 || peak > budget.cap {
				t.Fatalf("peak %d outside (0, %d]", peak, budget.cap)
			}
			got, err := LoadJobImage(store, man.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			sameImages(t, img, got)
		})
	}
}
