package core

import (
	"testing"
	"testing/quick"

	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/netmodel"
)

func TestGgidSimilarGroupsShareID(t *testing.T) {
	a := mpi.NewGroup([]int{4, 1, 9}).SortedWorldRanks()
	b := mpi.NewGroup([]int{9, 4, 1}).SortedWorldRanks()
	if GgidOf(a) != GgidOf(b) {
		t.Fatal("MPI_SIMILAR groups must share a ggid")
	}
	c := mpi.NewGroup([]int{4, 1, 8}).SortedWorldRanks()
	if GgidOf(a) == GgidOf(c) {
		t.Fatal("different groups should (almost surely) differ")
	}
}

func TestGgidEmptyAndSingleton(t *testing.T) {
	if GgidOf(nil) == GgidOf([]int{0}) {
		t.Fatal("empty and singleton groups collide")
	}
	if GgidOf([]int{1}) == GgidOf([]int{2}) {
		t.Fatal("distinct singletons collide")
	}
}

// Property: ggid collisions across random distinct small groups should not
// occur (FNV-1a over 8-byte encodings; collisions astronomically unlikely at
// this scale — any hit indicates an encoding bug such as truncation).
func TestPropertyGgidInjectiveOnSmallGroups(t *testing.T) {
	seen := make(map[uint64]string)
	f := func(members [4]uint16, n uint8) bool {
		k := int(n)%4 + 1
		set := make(map[int]bool)
		for i := 0; i < k; i++ {
			set[int(members[i])] = true
		}
		ranks := make([]int, 0, len(set))
		for r := range set {
			ranks = append(ranks, r)
		}
		g := mpi.NewGroup(ranks).SortedWorldRanks()
		key := ""
		for _, r := range g {
			key += string(rune(r)) + ","
		}
		id := GgidOf(g)
		if prev, ok := seen[id]; ok && prev != key {
			return false
		}
		seen[id] = key
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// newTestCC builds a CC instance over a small world with per-rank protocol
// instances, for direct unit tests of the seq/target machinery.
func newTestCC(n int) (*CC, []ckpt.Protocol, *mpi.World) {
	w := mpi.NewWorld(n, netmodel.New(netmodel.PerlmutterLike(), n))
	coord, _ := ckpt.NewCoordinator(w, nil) // no plan: cannot fail
	cc := New(coord)
	protos := make([]ckpt.Protocol, n)
	for r := 0; r < n; r++ {
		protos[r] = cc.NewRank(w.Proc(r), w.WorldComm(r))
	}
	return cc, protos, w
}

func worldInfo(w *mpi.World, rank int) *ckpt.CommInfo {
	c := w.WorldComm(rank)
	members := c.Group().SortedWorldRanks()
	return &ckpt.CommInfo{Comm: c, Ggid: GgidOf(members), Members: members, VID: 0}
}

func TestSeqNumbersTrackCollectives(t *testing.T) {
	cc, protos, w := newTestCC(2)
	ci0, ci1 := worldInfo(w, 0), worldInfo(w, 1)
	protos[0].RegisterComm(ci0)
	protos[1].RegisterComm(ci1)

	done := make(chan struct{})
	go func() {
		protos[1].Collective(ci1, nil, func() { ci1.Comm.Barrier() })
		protos[1].Collective(ci1, nil, func() { ci1.Comm.Barrier() })
		close(done)
	}()
	protos[0].Collective(ci0, nil, func() { ci0.Comm.Barrier() })
	protos[0].Collective(ci0, nil, func() { ci0.Comm.Barrier() })
	<-done

	r0 := cc.ranks[0]
	if got := r0.seqOf(ci0.Ggid); got != 2 {
		t.Fatalf("rank 0 SEQ = %d, want 2", got)
	}
	if got := cc.ranks[1].seqOf(ci1.Ggid); got != 2 {
		t.Fatalf("rank 1 SEQ = %d, want 2", got)
	}
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	cc, protos, w := newTestCC(1)
	ci := worldInfo(w, 0)
	protos[0].RegisterComm(ci)
	cc.ranks[0].mu.Lock()
	cc.ranks[0].seq[ci.Ggid] = 41
	cc.ranks[0].mu.Unlock()

	blob, err := protos[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cc2, protos2, w2 := newTestCC(1)
	ci2 := worldInfo(w2, 0)
	protos2[0].RegisterComm(ci2)
	if err := protos2[0].Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got := cc2.ranks[0].seqOf(ci.Ggid); got != 41 {
		t.Fatalf("restored SEQ = %d, want 41", got)
	}
	if err := protos2[0].Restore(nil); err != nil {
		t.Fatal("empty restore should be a no-op")
	}
}

func TestVerifySafeStateDetectsLag(t *testing.T) {
	cc, protos, w := newTestCC(2)
	for r := 0; r < 2; r++ {
		protos[r].RegisterComm(worldInfo(w, r))
	}
	g := worldInfo(w, 0).Ggid
	cc.ranks[0].mu.Lock()
	cc.ranks[0].seq[g] = 3
	cc.ranks[0].mu.Unlock()
	cc.OnCheckpointRequest() // targets: max(3, 0) = 3
	if err := cc.VerifySafeState(); err == nil {
		t.Fatal("rank 1 lagging its target must fail verification")
	}
	if cc.Quiesced() {
		t.Fatal("lagging rank cannot be quiesced")
	}
	// Catch rank 1 up.
	cc.ranks[1].mu.Lock()
	cc.ranks[1].seq[g] = 3
	cc.ranks[1].mu.Unlock()
	if err := cc.VerifySafeState(); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	if !cc.Quiesced() {
		t.Fatal("consistent drained state should be quiesced")
	}
}

func TestTargetsComputedAsMaxima(t *testing.T) {
	cc, protos, w := newTestCC(3)
	for r := 0; r < 3; r++ {
		protos[r].RegisterComm(worldInfo(w, r))
	}
	g := worldInfo(w, 0).Ggid
	for r, s := range []uint64{5, 7, 2} {
		cc.ranks[r].mu.Lock()
		cc.ranks[r].seq[g] = s
		cc.ranks[r].mu.Unlock()
	}
	cc.OnCheckpointRequest()
	for r := 0; r < 3; r++ {
		if _, tgt := cc.ranks[r].seqTarget(g); tgt != 7 {
			t.Fatalf("rank %d target %d, want 7 (the max)", r, tgt)
		}
	}
	if cc.ranks[2].reachedAllTargets() {
		t.Fatal("rank 2 at SEQ 2 cannot have reached target 7")
	}
	if !cc.ranks[1].reachedAllTargets() {
		t.Fatal("rank 1 at SEQ 7 has reached target 7")
	}
}
