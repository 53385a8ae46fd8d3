package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
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
		protos[1].Collective(ci1, nil, func() { ci1.Comm.CollectiveSized(netmodel.Barrier, 0, 0) })
		protos[1].Collective(ci1, nil, func() { ci1.Comm.CollectiveSized(netmodel.Barrier, 0, 0) })
		close(done)
	}()
	protos[0].Collective(ci0, nil, func() { ci0.Comm.CollectiveSized(netmodel.Barrier, 0, 0) })
	protos[0].Collective(ci0, nil, func() { ci0.Comm.CollectiveSized(netmodel.Barrier, 0, 0) })
	<-done

	r0 := cc.ranks[0]
	if got := r0.seqOf(ci0.Ggid); got != 2 {
		t.Fatalf("rank 0 SEQ = %d, want 2", got)
	}
	if got := cc.ranks[1].seqOf(ci1.Ggid); got != 2 {
		t.Fatalf("rank 1 SEQ = %d, want 2", got)
	}
}

// TestTrackPrunesCompletedRequests: outside any checkpoint, a rank's drain
// list holds its incomplete non-blocking collectives and a bounded number of
// completed ones, pruned without counting drain tests; every incomplete
// request stays for the drain; tracking allocates nothing once grown.
func TestTrackPrunesCompletedRequests(t *testing.T) {
	cc, protos, w := newTestCC(1)
	ci := worldInfo(w, 0)
	protos[0].RegisterComm(ci)
	r := cc.ranks[0]
	const n = 1000
	for i := 0; i < n; i++ {
		protos[0].Initiate(ci, ci.Comm.Ibarrier).Wait()
		if len(r.nb) > 2 {
			t.Fatalf("after %d completed initiations the drain list holds %d requests", i+1, len(r.nb))
		}
	}
	if got := w.Proc(0).Ct.DrainTests; got != 0 {
		t.Fatalf("pruning outside a checkpoint counted %d drain tests", got)
	}
	done := protos[0].Initiate(ci, ci.Comm.Ibarrier)
	done.Wait()
	if allocs := testing.AllocsPerRun(1000, func() { r.track(done) }); allocs != 0 {
		t.Fatalf("tracking a completed request allocates %v times a call", allocs)
	}

	// Rank 1 never joins: every initiation of rank 0 stays incomplete.
	cc2, protos2, w2 := newTestCC(2)
	ci0 := worldInfo(w2, 0)
	protos2[0].RegisterComm(ci0)
	for i := 0; i < 50; i++ {
		protos2[0].Initiate(ci0, ci0.Comm.Ibarrier)
	}
	if got := cc2.ranks[0].nbPending(); got != 50 {
		t.Fatalf("%d of 50 incomplete requests left for the drain", got)
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

// ccTable lays a protocol snapshot out by hand: the count word as given,
// then the words as given.
func ccTable(n uint64, words ...uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, n)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// TestCCSnapshotLayout: the sequence table snapshots as a count and
// (group, seq) pairs in increasing unsigned group order, whatever order the
// map iterates in, and restores onto the same table.
func TestCCSnapshotLayout(t *testing.T) {
	cc, protos, _ := newTestCC(1)
	var words []uint64
	for g := uint64(1); g <= 40; g++ {
		cc.ranks[0].seq[g] = g + 100
		words = append(words, g, g+100)
	}
	cc.ranks[0].seq[1<<63] = 7
	want := ccTable(41, append(words, 1<<63, 7)...)
	for k := 0; k < 5; k++ {
		got, err := protos[0].Snapshot()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d: %d bytes (err %v), want the %d-byte sorted layout", k, len(got), err, len(want))
		}
	}
	cc2, protos2, _ := newTestCC(1)
	if err := protos2[0].Restore(want); err != nil {
		t.Fatal(err)
	}
	if got, orig := cc2.ranks[0].seq, cc.ranks[0].seq; fmt.Sprint(got) != fmt.Sprint(orig) {
		t.Fatalf("restored %v, want %v", got, orig)
	}
}

// ccState is the protocol snapshot's gob layout before the fixed-width
// table, field for field and by name (gob sends the name), declared here
// only to encode the retired bytes.
type ccState struct {
	Groups []uint64
	Seqs   []uint64
	Seq    map[uint64]uint64
}

// TestCCRestoreHostile: a protocol snapshot in any shape but 8 + 16·n bytes
// with strictly increasing groups is refused with a cc: error — never a
// panic, an allocation sized by a lying count, or a partly replaced table.
func TestCCRestoreHostile(t *testing.T) {
	var retired bytes.Buffer
	if err := gob.NewEncoder(&retired).Encode(ccState{Groups: []uint64{0x70c9b82103059f06, 0xa8c7f832281a39c5}, Seqs: []uint64{0, 3}}); err != nil {
		t.Fatal(err)
	}
	type hostile struct {
		name string
		data []byte
		want string
	}
	cases := []hostile{
		{"count 2^60: 16·n wraps to 0", ccTable(1 << 60), "claimed"},
		{"count 2^60 + 1: 16·n wraps to 16", ccTable(1<<60+1, 1, 2), "claimed"},
		{"count past the bytes", ccTable(3, 1, 2, 3, 4), "claimed"},
		{"one pair short of the count", ccTable(2, 1, 2), "claimed"},
		{"a pair past the count", ccTable(1, 1, 2, 3, 4), "claimed"},
		{"unsorted groups", ccTable(2, 9, 1, 4, 2), "strictly increase"},
		{"repeated group", ccTable(3, 4, 1, 7, 2, 7, 3), "strictly increase"},
		{"the retired gob layout", retired.Bytes(), "claimed"},
	}
	for n := 1; n < 8; n++ {
		cases = append(cases, hostile{fmt.Sprintf("%d bytes", n), make([]byte, n), "count word"})
	}
	for _, extra := range []int{1, 7, 9, 15} {
		cases = append(cases, hostile{fmt.Sprintf("one pair and %d odd bytes", extra), append(ccTable(1, 5, 6), make([]byte, extra)...), "claimed"})
	}
	cc, protos, _ := newTestCC(1)
	cc.ranks[0].seq[11] = 12
	for _, c := range cases {
		err := protos[0].Restore(c.data)
		if err == nil || !strings.HasPrefix(err.Error(), "cc: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a cc error about %q", c.name, err, c.want)
		}
		if got := cc.ranks[0].seq; len(got) != 1 || got[11] != 12 {
			t.Fatalf("%s: a refused snapshot replaced the table with %v", c.name, got)
		}
	}
	if err := protos[0].Restore(ccTable(0)); err != nil || len(cc.ranks[0].seq) != 0 {
		t.Fatalf("an empty table: err %v, %d groups left", err, len(cc.ranks[0].seq))
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// which allocates on its own account.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// heapBytes returns the fewest heap bytes any of three calls of f allocated.
// Other goroutines of a test binary — the fuzzing engine's among them —
// allocate now and then, which one measurement would charge to f; a
// Restore that is refused or replaces the table with the same one costs the
// same every call.
func heapBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestCCRestoreAllocs: restoring a 3-group table allocates its two maps
// (three allocations: the sequence table and its one group of slots, the
// empty target table) and nothing else. Through gob the same Restore made
// 184 allocations on the commit before: a decoder, the type exchange and a
// compiled engine per call.
func TestCCRestoreAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own account")
	}
	_, protos, _ := newTestCC(1)
	data := ccTable(3, 1, 5, 2, 6, 3, 7)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := protos[0].Restore(data); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("Restore of a 3-group table allocates %v times, want at most 3", allocs)
	}
}

// FuzzCCRestore: arbitrary bytes are refused with a cc: error, leaving the
// table as it was, or restore a table that snapshots back to exactly those
// bytes — the layout has one encoding per table. Empty bytes are the
// native image's no-op. Restore allocates nothing sized by a claim: its
// bytes are bounded by the input's length times a map's overhead (a Go map
// holds a 16-byte pair in up to 2.8 times its size), past a 1 KiB floor for
// a small table or an error message.
func FuzzCCRestore(f *testing.F) {
	f.Add(ccTable(2, 1, 5, 2, 6))
	f.Add(ccTable(0))
	f.Add(ccTable(1<<60+1, 1, 2))
	f.Add(ccTable(2, 2, 5, 1, 6))
	f.Add([]byte{1, 2, 3})
	checkAllocs := !raceBuild()
	f.Fuzz(func(t *testing.T, data []byte) {
		cc, protos, _ := newTestCC(1)
		cc.ranks[0].seq[11] = 12
		var err error
		got := heapBytes(func() { err = protos[0].Restore(data) })
		if limit := 3*uint64(len(data)) + (1 << 10); checkAllocs && got > limit {
			t.Fatalf("Restore of %d bytes allocated %d (limit %d; err %v)", len(data), got, limit, err)
		}
		switch {
		case len(data) == 0:
			if err != nil || len(cc.ranks[0].seq) != 1 {
				t.Fatalf("empty data: err %v, table %v; want a no-op", err, cc.ranks[0].seq)
			}
		case err != nil:
			if !strings.HasPrefix(err.Error(), "cc: ") {
				t.Fatalf("refusal without the cc: prefix: %v", err)
			}
			if len(cc.ranks[0].seq) != 1 || cc.ranks[0].seq[11] != 12 {
				t.Fatalf("a refused snapshot replaced the table with %v", cc.ranks[0].seq)
			}
		default:
			again, err := protos[0].Snapshot()
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("restored %d bytes, snapshot back %d (err %v): not the same bytes", len(data), len(again), err)
			}
		}
	})
}
