package ckpt

import (
	"os"
	"strings"
	"sync"
	"testing"

	"mana/internal/netmodel"
)

// commitChain commits a 4-epoch incremental chain on the store: epoch 0 is
// full, epochs 1..3 mutate only rank 2, so every later epoch's cold shards
// reference epoch 0 and rank 2's bytes live in the newest epoch. Returns
// the manifests and the final image (what a restart from epoch 3 restores).
func commitLifecycleChain(t *testing.T, store Store) ([]*Manifest, *JobImage) {
	t.Helper()
	mans := make([]*Manifest, 4)
	var parent *Manifest
	var img *JobImage
	for e := 0; e < 4; e++ {
		img = testImage(4, 1)
		img.CaptureVT = 1.5 + float64(e)
		img.Images[2].App[0] += byte(e) // rank 2 churns every epoch
		man, _, err := CommitCapture(store, e, parent, img)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		mans[e] = man
		parent = man
	}
	for _, si := range mans[3].Shards {
		want := 0
		if si.Rank == 2 {
			want = 3
		}
		if si.RefEpoch != want {
			t.Fatalf("chain shape: rank %d references epoch %d, want %d", si.Rank, si.RefEpoch, want)
		}
	}
	return mans, img
}

// TestGCStoreTransitiveLiveness: keep=1 retains epoch 3 AND epoch 0 (epoch
// 3's cold shards live there), deleting only the unreferenced middle of the
// chain — and the survivors still verify and load.
func TestGCStoreTransitiveLiveness(t *testing.T) {
	for name, store := range map[string]Store{"mem": Store(NewMemStore()), "file": mustFileStore(t)} {
		t.Run(name, func(t *testing.T) {
			_, img3 := commitLifecycleChain(t, store)
			st, err := GCStore(store, 1)
			if err != nil {
				t.Fatal(err)
			}
			if st.DeletedEpochs != 2 || st.ReclaimedBytes <= 0 {
				t.Fatalf("want epochs 1 and 2 reclaimed, got %+v", st)
			}
			left, err := store.Epochs()
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 2 || left[0] != 0 || left[1] != 3 {
				t.Fatalf("surviving epochs %v, want [0 3]", left)
			}
			if faults, err := VerifyStore(store); err != nil || len(faults) != 0 {
				t.Fatalf("gc broke a live reference: faults=%v err=%v", faults, err)
			}
			got, err := LoadJobImage(store, 3)
			if err != nil {
				t.Fatal(err)
			}
			sameImages(t, img3, got)
		})
	}
}

// TestGCStoreKeepBounds: keep must be positive, and a keep wider than the
// store deletes nothing.
func TestGCStoreKeepBounds(t *testing.T) {
	store := NewMemStore()
	commitLifecycleChain(t, store)
	if _, err := GCStore(store, 0); err == nil {
		t.Fatal("keep=0 must be rejected (it would empty the store)")
	}
	st, err := GCStore(store, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeletedEpochs != 0 || st.ReclaimedBytes != 0 {
		t.Fatalf("keep wider than the store reclaimed %+v", st)
	}
	if len(st.LiveEpochs) != 4 {
		t.Fatalf("live epochs %v, want all four", st.LiveEpochs)
	}
}

// TestGCStoreSweepsUnsealedDebris: an unsealed epoch BELOW the newest seal
// is failed-commit debris and is swept; one ABOVE it could be an in-flight
// commit and must survive.
func TestGCStoreSweepsUnsealedDebris(t *testing.T) {
	for name, store := range map[string]Store{"mem": Store(NewMemStore()), "file": mustFileStore(t)} {
		t.Run(name, func(t *testing.T) {
			img := testImage(4, 1)
			if _, _, err := CommitCapture(store, 0, nil, img); err != nil {
				t.Fatal(err)
			}
			if _, _, err := CommitCapture(store, 2, nil, img); err != nil {
				t.Fatal(err)
			}
			// Epoch 1: aborted-commit debris. Epoch 5: in flight.
			if err := store.PutShard(1, 0, []byte("debris")); err != nil {
				t.Fatal(err)
			}
			if err := store.PutShard(5, 0, []byte("inflight")); err != nil {
				t.Fatal(err)
			}
			st, err := GCStore(store, 2)
			if err != nil {
				t.Fatal(err)
			}
			if st.DeletedEpochs != 0 {
				t.Fatalf("sealed epochs deleted: %+v", st)
			}
			if st.SweptObjects != 1 || st.ReclaimedBytes != int64(len("debris")) {
				t.Fatalf("want exactly the epoch-1 debris swept, got %+v", st)
			}
			if _, err := store.GetShard(1, 0); err == nil {
				t.Fatal("epoch-1 debris survived the sweep")
			}
			if _, err := store.GetShard(5, 0); err != nil {
				t.Fatalf("in-flight epoch-5 shard was swept: %v", err)
			}
		})
	}
}

// TestFileStoreDeleteEpoch: deleting a sealed epoch removes its directory
// and reports every byte, and deleting what is already gone is not an
// error (GC retried after a crash).
func TestFileStoreDeleteEpoch(t *testing.T) {
	fs := mustFileStore(t)
	commitLifecycleChain(t, fs)
	n, err := fs.DeleteEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("deleted epoch reported %d bytes", n)
	}
	if _, err := os.Stat(fs.ManifestPath(1)); !os.IsNotExist(err) {
		t.Fatalf("manifest survived deletion: %v", err)
	}
	epochs, err := fs.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("epochs after delete: %v", epochs)
	}
	if n, err := fs.DeleteEpoch(1); err != nil || n != 0 {
		t.Fatalf("idempotent re-delete: n=%d err=%v", n, err)
	}
	if n, err := fs.DeleteShard(1, 0); err != nil || n != 0 {
		t.Fatalf("deleting an absent shard: n=%d err=%v", n, err)
	}
}

// TestCompactChain: compaction rewrites the deep chain into a fresh
// self-contained epoch that loads identically, and GC can then reclaim the
// whole chain behind it.
func TestCompactChain(t *testing.T) {
	for name, store := range map[string]Store{"mem": Store(NewMemStore()), "file": mustFileStore(t)} {
		t.Run(name, func(t *testing.T) {
			_, img3 := commitLifecycleChain(t, store)
			man, st, err := CompactChain(store, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st == nil {
				t.Fatal("a referencing epoch must not compact as a no-op")
			}
			if man.Epoch != 4 || man.Parent != -1 {
				t.Fatalf("compacted header: %+v", man)
			}
			if st.FreshShards != 4 || st.FreshBytes <= 0 {
				t.Fatalf("compaction stats: %+v", st)
			}
			for _, si := range man.Shards {
				if si.RefEpoch != 4 {
					t.Fatalf("compacted shard still references elsewhere: %+v", si)
				}
			}
			if reads := ReadSetOf(man); len(reads) != 1 {
				t.Fatalf("compacted read set spans %d epochs", len(reads))
			}
			got, err := LoadJobImage(store, 4)
			if err != nil {
				t.Fatal(err)
			}
			sameImages(t, img3, got)
			if got.CaptureVT != img3.CaptureVT {
				t.Fatalf("compaction moved the capture point: %g != %g", got.CaptureVT, img3.CaptureVT)
			}

			// A self-contained epoch is a no-op (nil stats, same manifest).
			again, st2, err := CompactChain(store, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st2 != nil || again.Epoch != 4 {
				t.Fatalf("re-compaction was not a no-op: man=%+v st=%+v", again, st2)
			}

			gc, err := GCStore(store, 1)
			if err != nil {
				t.Fatal(err)
			}
			if gc.DeletedEpochs != 4 || gc.ReclaimedBytes <= 0 {
				t.Fatalf("gc behind the compacted epoch: %+v", gc)
			}
			left, err := store.Epochs()
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 1 || left[0] != 4 {
				t.Fatalf("epochs after compact+gc: %v", left)
			}
		})
	}
}

// TestCompactChainVerifiesCopiedBytes: a parent shard torn on disk must
// fail compaction BEFORE the new epoch seals — a sealed-but-corrupt
// compacted epoch would become silent data loss once GC deletes the chain.
func TestCompactChainVerifiesCopiedBytes(t *testing.T) {
	fs := mustFileStore(t)
	commitLifecycleChain(t, fs)
	truncateShard(t, fs, 0, 0, 0.5)
	_, _, err := CompactChain(fs, 3, nil)
	if err == nil {
		t.Fatal("compaction sealed a corrupt copy")
	}
	if !strings.Contains(err.Error(), "manifest identity") && !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error does not attribute the bad copy: %v", err)
	}
	epochs, err := fs.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 4 || epochs[3] != 3 {
		t.Fatalf("failed compaction changed the sealed set: %v", epochs)
	}
	// The aborted target epoch left no debris behind.
	if _, err := os.Stat(fs.ManifestPath(4)); !os.IsNotExist(err) {
		t.Fatalf("aborted compaction sealed epoch 4: %v", err)
	}
	if swept, n, err := fs.SweepUnsealed(4); err != nil || n != 0 || swept != 0 {
		t.Fatalf("aborted compaction left %d debris objects (%d bytes, err %v)", n, swept, err)
	}
}

// TestLatestEpochEmptyStore: the error path must return -1, not a value a
// caller could mistake for epoch 0.
func TestLatestEpochEmptyStore(t *testing.T) {
	for name, store := range map[string]Store{"mem": Store(NewMemStore()), "file": mustFileStore(t)} {
		t.Run(name, func(t *testing.T) {
			e, err := LatestEpoch(store)
			if err == nil {
				t.Fatal("empty store must not have a latest epoch")
			}
			if e != -1 {
				t.Fatalf("error path returned epoch %d, want -1", e)
			}
		})
	}
}

// TestModelStoreAbortKeepsConcurrentMeter is the regression test for the
// shared-pending bug: aborting one epoch must not zero the bytes metered
// toward a different in-flight epoch, so the surviving epoch's sealed cost
// still prices its traffic.
func TestModelStoreAbortKeepsConcurrentMeter(t *testing.T) {
	model := netmodel.New(netmodel.EthernetLike(), 2)
	ms := NewModelStore(NewMemStore(), model, 2)

	payload := make([]byte, 1<<20)
	if err := ms.PutShard(0, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := ms.PutShard(1, 0, payload); err != nil {
		t.Fatal(err)
	}
	ms.AbortEpoch(0)
	if err := ms.PutManifest(1, &Manifest{Version: ManifestV3, Epoch: 1, Parent: -1, Ranks: 1}); err != nil {
		t.Fatal(err)
	}
	got := ms.EpochCost(1)
	want := model.TierWriteCost(netmodel.TierPFS, int64(len(payload)), 2, false)
	if got != want {
		t.Fatalf("epoch 1 cost %+v, want %+v (abort of epoch 0 drained its meter?)", got, want)
	}
	if _, err := ms.GetShard(0, 0); err == nil {
		t.Fatal("aborted epoch's debris shard survived")
	}
}

// TestModelStoreConcurrentCommitAbort hammers interleaved commits and
// aborts across distinct epochs under the race detector: every sealed
// epoch's cost reflects exactly its own bytes.
func TestModelStoreConcurrentCommitAbort(t *testing.T) {
	model := netmodel.New(netmodel.EthernetLike(), 2)
	ms := NewModelStore(NewMemStore(), model, 2)
	const epochs = 16
	payload := make([]byte, 64<<10)

	var wg sync.WaitGroup
	for e := 0; e < epochs; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			if err := ms.PutShard(e, 0, payload); err != nil {
				t.Error(err)
				return
			}
			if e%2 == 0 {
				ms.AbortEpoch(e)
				return
			}
			if err := ms.PutManifest(e, &Manifest{Version: ManifestV3, Epoch: e, Parent: -1, Ranks: 1}); err != nil {
				t.Error(err)
			}
		}(e)
	}
	wg.Wait()

	want := model.TierWriteCost(netmodel.TierPFS, int64(len(payload)), 2, false)
	for e := 0; e < epochs; e++ {
		cost := ms.EpochCost(e)
		if e%2 == 0 {
			if cost.Total != 0 {
				t.Errorf("aborted epoch %d has a sealed cost %+v", e, cost)
			}
			continue
		}
		if cost != want {
			t.Errorf("epoch %d cost %+v, want %+v", e, cost, want)
		}
	}
}

// TestGCStoreDeleteCostPriced: on a ModelStore the reclaim pass reports the
// modeled metadata cost of the deletions it performed.
func TestGCStoreDeleteCostPriced(t *testing.T) {
	model := netmodel.New(netmodel.EthernetLike(), 2)
	ms := NewModelStore(NewMemStore(), model, 2)
	commitLifecycleChain(t, ms)
	st, err := GCStore(ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeletedEpochs != 2 {
		t.Fatalf("want the chain middle deleted: %+v", st)
	}
	// Two epochs, each one fresh shard plus its manifest.
	if want := ms.DeleteCost(4); st.DeleteVT != want {
		t.Fatalf("DeleteVT %g, want %g", st.DeleteVT, want)
	}
}
