package netmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func testModel(ppn int) *Model { return New(PerlmutterLike(), ppn) }

func worldGeom(m *Model, n int) (Geometry, []int) {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return m.GeometryOf(ranks), ranks
}

func TestValidate(t *testing.T) {
	if err := PerlmutterLike().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := PerlmutterLike()
	bad.LatencyInter = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	bad = PerlmutterLike()
	bad.BwInter = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = PerlmutterLike()
	bad.EagerThreshold = -5
	if err := bad.Validate(); err == nil {
		t.Fatal("negative eager threshold accepted")
	}
	bad = PerlmutterLike()
	bad.StorageAggBW = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New did not panic on ppn=0")
		}
	}()
	New(PerlmutterLike(), 0)
}

func TestNodePlacement(t *testing.T) {
	m := testModel(128)
	if m.NodeOf(0) != 0 || m.NodeOf(127) != 0 || m.NodeOf(128) != 1 {
		t.Fatalf("node placement wrong: %d %d %d", m.NodeOf(0), m.NodeOf(127), m.NodeOf(128))
	}
	if !m.SameNode(3, 100) || m.SameNode(100, 200) {
		t.Fatal("SameNode wrong")
	}
}

func TestP2PCostOrdering(t *testing.T) {
	m := testModel(128)
	intra := m.P2PCost(0, 1, 1024)
	inter := m.P2PCost(0, 200, 1024)
	if intra >= inter {
		t.Fatalf("intra-node (%g) should be cheaper than inter-node (%g)", intra, inter)
	}
	small := m.P2PCost(0, 200, 4)
	big := m.P2PCost(0, 200, 1<<20)
	if small >= big {
		t.Fatalf("larger message should cost more: %g vs %g", small, big)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDepthOf(t *testing.T) {
	// Binomial tree over 8 ranks rooted at 0: rank 0 depth 0; ranks
	// 1,2,4 depth 1..1? depthOf counts bits: rel=1->1, rel=2->2, ...
	if depthOf(0, 0, 8) != 0 {
		t.Fatal("root depth must be 0")
	}
	for i := 1; i < 8; i++ {
		d := depthOf(i, 0, 8)
		if d < 1 || d > 3 {
			t.Fatalf("depth of %d out of range: %d", i, d)
		}
	}
	// Rotation: root 3 sees itself at depth 0.
	if depthOf(3, 3, 8) != 0 {
		t.Fatal("rotated root depth must be 0")
	}
}

func TestGeometryOf(t *testing.T) {
	m := testModel(4)
	g := m.GeometryOf([]int{0, 1, 2, 3})
	if g.Nodes != 1 || g.HasInter || g.MaxPPN != 4 || g.N != 4 {
		t.Fatalf("single node geometry wrong: %+v", g)
	}
	g = m.GeometryOf([]int{0, 4, 8})
	if g.Nodes != 3 || !g.HasInter || g.MaxPPN != 1 {
		t.Fatalf("spread geometry wrong: %+v", g)
	}
}

func TestSynchronizingClassification(t *testing.T) {
	if !Barrier.Synchronizing() || !Allreduce.Synchronizing() || !Alltoall.Synchronizing() {
		t.Fatal("barrier/allreduce/alltoall must be synchronizing")
	}
	if Bcast.Synchronizing() || Reduce.Synchronizing() || Scatter.Synchronizing() || Gather.Synchronizing() {
		t.Fatal("rooted collectives must not be synchronizing")
	}
}

func TestCollKindString(t *testing.T) {
	if Bcast.String() != "Bcast" || Alltoall.String() != "Alltoall" {
		t.Fatal("String() names wrong")
	}
	if CollKind(99).String() != "Unknown" {
		t.Fatal("out-of-range kind should be Unknown")
	}
}

func TestBcastRootExitsEarly(t *testing.T) {
	m := testModel(128)
	g, ranks := worldGeom(m, 512)
	spec := CollSpec{Kind: Bcast, Size: 4, Root: 0, Geom: g, WorldRanks: ranks}
	entries := make([]float64, 512)
	// A straggling receiver must not delay the root.
	entries[511] = 1.0
	exits := m.CollExits(spec, entries)
	if exits[0] > 1e-5 {
		t.Fatalf("Bcast root should exit almost immediately, got %g", exits[0])
	}
	if exits[511] < 1.0 {
		t.Fatalf("straggler cannot exit before it entered: %g", exits[511])
	}
	// But a straggling ROOT delays everyone.
	entries = make([]float64, 512)
	entries[0] = 1.0
	exits = m.CollExits(spec, entries)
	for i := 1; i < 512; i++ {
		if exits[i] < 1.0 {
			t.Fatalf("receiver %d exited before root data existed: %g", i, exits[i])
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	m := testModel(128)
	g, ranks := worldGeom(m, 256)
	spec := CollSpec{Kind: Barrier, Size: 0, Geom: g, WorldRanks: ranks}
	entries := make([]float64, 256)
	entries[7] = 2.5
	exits := m.CollExits(spec, entries)
	for i, e := range exits {
		if e < 2.5 {
			t.Fatalf("rank %d exited barrier before last entry: %g", i, e)
		}
		if e != exits[0] {
			t.Fatalf("barrier exits must be identical, rank %d: %g vs %g", i, e, exits[0])
		}
	}
}

func TestReduceRootWaitsLeavesDont(t *testing.T) {
	m := testModel(128)
	g, ranks := worldGeom(m, 512)
	spec := CollSpec{Kind: Reduce, Size: 1024, Root: 0, Geom: g, WorldRanks: ranks}
	entries := make([]float64, 512)
	entries[300] = 1.0 // straggler leaf
	exits := m.CollExits(spec, entries)
	if exits[0] < 1.0 {
		t.Fatalf("reduce root must wait for straggler: %g", exits[0])
	}
	if exits[100] > 0.5 {
		t.Fatalf("reduce leaf should not wait for other leaves: %g", exits[100])
	}
}

func TestExitsNeverBeforeEntries(t *testing.T) {
	m := testModel(128)
	kinds := []CollKind{Barrier, Bcast, Reduce, Allreduce, Gather, Allgather, Alltoall, Scatter, Scan, ReduceScatter}
	g, ranks := worldGeom(m, 64)
	for _, k := range kinds {
		spec := CollSpec{Kind: k, Size: 512, Root: 3, Geom: g, WorldRanks: ranks}
		entries := make([]float64, 64)
		for i := range entries {
			entries[i] = float64(i) * 1e-4
		}
		exits := m.CollExits(spec, entries)
		for i := range exits {
			if exits[i] < entries[i] {
				t.Fatalf("%v: rank %d exits (%g) before entry (%g)", k, i, exits[i], entries[i])
			}
		}
	}
}

func TestCollCostGrowsWithSizeAndRanks(t *testing.T) {
	m := testModel(128)
	for _, k := range []CollKind{Bcast, Allreduce, Alltoall, Allgather} {
		gSmall, rSmall := worldGeom(m, 128)
		gBig, rBig := worldGeom(m, 2048)
		d1 := m.CollNetDuration(CollSpec{Kind: k, Size: 4, Geom: gSmall, WorldRanks: rSmall})
		d2 := m.CollNetDuration(CollSpec{Kind: k, Size: 1 << 20, Geom: gSmall, WorldRanks: rSmall})
		if d2 <= d1 {
			t.Errorf("%v: 1MB (%g) should cost more than 4B (%g)", k, d2, d1)
		}
		d3 := m.CollNetDuration(CollSpec{Kind: k, Size: 4, Geom: gBig, WorldRanks: rBig})
		if d3 <= d1 {
			t.Errorf("%v: 2048 ranks (%g) should cost more than 128 ranks (%g)", k, d3, d1)
		}
	}
}

func TestSmallBcastRateBand(t *testing.T) {
	// The paper's Table 1 reports ~255k 4-byte Bcasts/sec on 512 ranks over
	// 4 nodes. Our calibration should land within a loose band (50k-1M).
	m := testModel(128)
	g, ranks := worldGeom(m, 512)
	d := m.CollNetDuration(CollSpec{Kind: Bcast, Size: 4, Root: 0, Geom: g, WorldRanks: ranks})
	rate := 1 / d
	if rate < 50e3 || rate > 1e6 {
		t.Fatalf("4B Bcast rate %.0f/s outside plausible Slingshot band", rate)
	}
}

func TestStorageModel(t *testing.T) {
	m := testModel(128)
	oneNode := m.TierWriteTime(TierPFS, 100<<30, 1)
	fourNodes := m.TierWriteTime(TierPFS, 100<<30, 4)
	if fourNodes >= oneNode {
		t.Fatalf("more writer nodes should be faster for fixed bytes: %g vs %g", fourNodes, oneNode)
	}
	// Aggregate cap: beyond AggBW/NodeBW nodes no further transfer speedup —
	// doubling the writers may only cost MORE (open-stagger contention).
	a := m.TierWriteTime(TierPFS, 100<<30, 100)
	b := m.TierWriteTime(TierPFS, 100<<30, 200)
	if b < a {
		t.Fatalf("aggregate bandwidth cap not applied: %g vs %g", a, b)
	}
	// With staggering disabled the capped region is exactly flat.
	flat := m.P
	flat.StorageStagger = 0
	fm := New(flat, 128)
	if d := math.Abs(fm.TierWriteTime(TierPFS, 100<<30, 100) - fm.TierWriteTime(TierPFS, 100<<30, 200)); d > 1e-9 {
		t.Fatalf("stagger-free aggregate cap not flat (diff %g)", d)
	}
	if m.RestartReadTime(1<<30, 4) <= m.TierWriteTime(TierPFS, 1<<30, 4) {
		t.Fatal("restart must include fixed lower-half relaunch cost")
	}
	if m.TierWriteTime(TierPFS, 0, 0) <= 0 {
		t.Fatal("zero-node write should still pay latency")
	}
}

func TestCheckpointWriteCost(t *testing.T) {
	m := testModel(128)
	const bytes = 10 << 30

	stalled := m.TierWriteCost(TierPFS, bytes, 4, false)
	if stalled.Total != m.TierWriteTime(TierPFS, bytes, 4) {
		t.Fatalf("stalled total %g != write time %g", stalled.Total, m.TierWriteTime(TierPFS, bytes, 4))
	}
	if stalled.Stall != stalled.Total || stalled.Overlap != 0 {
		t.Fatalf("stalled write must charge everything as stall: %+v", stalled)
	}

	overlapped := m.TierWriteCost(TierPFS, bytes, 4, true)
	if overlapped.Total != stalled.Total {
		t.Fatalf("overlap must not change the total cost: %+v vs %+v", overlapped, stalled)
	}
	if overlapped.Stall != m.P.StorageLatency {
		t.Fatalf("overlapped stall %g, want the open latency %g", overlapped.Stall, m.P.StorageLatency)
	}
	if math.Abs(overlapped.Stall+overlapped.Overlap-overlapped.Total) > 1e-9 {
		t.Fatalf("stall+overlap != total: %+v", overlapped)
	}

	// Degenerate write: the stall can never exceed the total.
	tiny := m.TierWriteCost(TierPFS, 0, 1, true)
	if tiny.Stall > tiny.Total {
		t.Fatalf("stall exceeds total on a zero-byte write: %+v", tiny)
	}
}

func TestNonblockingCompletionMatchesBlockingShape(t *testing.T) {
	m := testModel(128)
	g, ranks := worldGeom(m, 64)
	spec := CollSpec{Kind: Allreduce, Size: 1024, Geom: g, WorldRanks: ranks}
	inits := make([]float64, 64)
	inits[10] = 0.3
	compl := m.NonblockingCompletion(spec, inits)
	for i, c := range compl {
		if c < 0.3 {
			t.Fatalf("rank %d completes before last initiation: %g", i, c)
		}
	}
}

// Property: exit times are monotone in entry times — delaying any entry can
// never make any exit earlier.
func TestPropertyExitMonotoneInEntries(t *testing.T) {
	m := testModel(8)
	g, ranks := worldGeom(m, 16)
	f := func(delays [16]uint8, which uint8, kindSel uint8) bool {
		kinds := []CollKind{Barrier, Bcast, Reduce, Allreduce, Alltoall, Allgather}
		k := kinds[int(kindSel)%len(kinds)]
		spec := CollSpec{Kind: k, Size: 256, Root: 2, Geom: g, WorldRanks: ranks}
		entries := make([]float64, 16)
		for i := range entries {
			entries[i] = float64(delays[i]) * 1e-5
		}
		before := m.CollExits(spec, entries)
		bumped := make([]float64, 16)
		copy(bumped, entries)
		bumped[int(which)%16] += 1e-3
		after := m.CollExits(spec, bumped)
		for i := range before {
			if after[i]+1e-12 < before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: storage time is monotone in bytes.
func TestPropertyStorageMonotone(t *testing.T) {
	m := testModel(128)
	f := func(a, b uint32, nodes uint8) bool {
		n := int(nodes%16) + 1
		lo, hi := int64(a), int64(a)+int64(b)
		return m.TierWriteTime(TierPFS, hi, n) >= m.TierWriteTime(TierPFS, lo, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLargeMessagePipelining(t *testing.T) {
	// Large-payload tree collectives pipeline: doubling the tree depth must
	// not double the 1MB broadcast time (the bandwidth term is paid once).
	m := testModel(128)
	gSmall, rSmall := worldGeom(m, 256)
	gBig, rBig := worldGeom(m, 2048)
	const size = 1 << 20
	dSmall := m.CollNetDuration(CollSpec{Kind: Bcast, Size: size, Geom: gSmall, WorldRanks: rSmall})
	dBig := m.CollNetDuration(CollSpec{Kind: Bcast, Size: size, Geom: gBig, WorldRanks: rBig})
	bwTerm := float64(size) / m.P.BwInter
	if dSmall < bwTerm {
		t.Fatalf("1MB bcast (%g) cannot beat the bandwidth floor (%g)", dSmall, bwTerm)
	}
	if dBig > 2*dSmall {
		t.Fatalf("scaling 8x in ranks should not double 1MB bcast: %g -> %g", dSmall, dBig)
	}
}
