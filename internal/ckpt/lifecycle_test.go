package ckpt

import (
	"errors"
	"math"
	"os"
	"strings"
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

// sealRefuser refuses to seal epoch 0, once release is closed: the commit
// fails after its shards are already written, and not before the test has
// put a second epoch in flight behind it.
type sealRefuser struct {
	*MemStore
	release chan struct{}
}

func (s *sealRefuser) PutManifest(epoch int, man *Manifest) error {
	if epoch == 0 {
		<-s.release
		return errors.New("seal refused")
	}
	return s.MemStore.PutManifest(epoch, man)
}

// TestFailedCommitLeavesNoDebris: a background commit that fails at the seal
// removes the shard objects it had already written and surfaces through
// Result, and the epoch captured while it was in flight still seals — at its
// own manifest's price, charged for nothing the failed epoch wrote.
func TestFailedCommitLeavesNoDebris(t *testing.T) {
	store := &sealRefuser{MemStore: NewMemStore(), release: make(chan struct{})}
	c, _, w := newStubCoordinator(t, 4, Plan{Store: store, Async: true})
	captureNow(t, c, 1)
	captureNow(t, c, 2)
	close(store.release)
	if _, _, err := c.Result(); err == nil || !strings.Contains(err.Error(), "committing epoch 0: seal refused") {
		t.Fatalf("failed seal not surfaced: %v", err)
	}
	for key := range store.shards {
		if key[0] == 0 {
			t.Fatalf("unsealed epoch 0 left shard object %v behind", key)
		}
	}
	if epochs, _ := store.Epochs(); len(epochs) != 1 || epochs[0] != 1 {
		t.Fatalf("sealed epochs %v, want only epoch 1", epochs)
	}
	man, err := store.GetManifest(1)
	if err != nil {
		t.Fatal(err)
	}
	hist := c.History()
	if hist[0].WriteVT != 0 || hist[0].FreshShards != 0 {
		t.Fatalf("the epoch that never sealed was charged: %+v", hist[0])
	}
	if want := w.Model.WriteCost(WriteBytesOf(man), 1, true); hist[1].WriteVT != want.Total || hist[1].OverlapVT != want.Overlap {
		t.Fatalf("epoch 1 charged %g (overlap %g), its own manifest prices %+v", hist[1].WriteVT, hist[1].OverlapVT, want)
	}
}

// TestGCStoreDeleteCostPriced: the reclaim pass is charged the modeled
// metadata cost of the deletions it performed.
func TestGCStoreDeleteCostPriced(t *testing.T) {
	model := netmodel.New(netmodel.EthernetLike(), 2)
	s := newPinSealer(t, pinPlan{params: netmodel.EthernetLike()})
	commitLifecycleChain(t, s.c.Plan.Store)
	st, vt := s.collect(t, 1)
	if st.DeletedEpochs != 2 {
		t.Fatalf("want the chain middle deleted: %+v", st)
	}
	// Two epochs, each one fresh shard plus its manifest.
	if want := model.DeleteTime(4); math.Float64frombits(vt) != want {
		t.Fatalf("GCVT %g, want %g", math.Float64frombits(vt), want)
	}
}
