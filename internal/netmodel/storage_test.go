package netmodel

import (
	"math"
	"testing"
)

// Zero-bandwidth filesystem: transfers of positive bytes take forever (+Inf, not
// NaN and no panic), while zero-byte writes still complete at the latency.
func TestZeroBandwidthTier(t *testing.T) {
	p := PerlmutterLike()
	p.StorageAggBW, p.StorageNodeBW = 0, 0
	m := New(p, 128)
	if v := m.WriteTime(1, 4); !math.IsInf(v, 1) {
		t.Fatalf("positive bytes on a dead filesystem should cost +Inf, got %g", v)
	}
	if v := m.WriteTime(0, 4); math.IsNaN(v) || math.IsInf(v, 0) || v < p.StorageLatency {
		t.Fatalf("zero-byte write on a dead filesystem should still pay latency, got %g", v)
	}
	// Aggregate-only filesystem (StorageNodeBW zero): every node shares AggBW.
	p = PerlmutterLike()
	p.StorageNodeBW = 0
	m = New(p, 128)
	one := m.WriteTime(10<<30, 1)
	many := m.WriteTime(10<<30, 8)
	if one < float64(10<<30)/p.StorageAggBW {
		t.Fatalf("aggregate-only filesystem beat its own bandwidth: %g", one)
	}
	// More nodes only add stagger; the shared pipe does not widen.
	if many < one {
		t.Fatalf("aggregate-only filesystem sped up with more nodes: %g vs %g", many, one)
	}
}

// Zero-latency filesystem: legal (memory-class storage), cost is pure
// transfer.
func TestZeroLatencyTier(t *testing.T) {
	p := PerlmutterLike()
	p.StorageLatency, p.StorageStagger = 0, 0
	m := New(p, 128)
	want := float64(10<<30) / math.Min(4*p.StorageNodeBW, p.StorageAggBW)
	if got := m.WriteTime(10<<30, 4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zero-latency write = %g, want pure transfer %g", got, want)
	}
	if got := m.WriteCost(10<<30, 4, true); got.Stall != 0 {
		t.Fatalf("zero-latency overlapped write should not stall at all: %+v", got)
	}
}

// Single-rank jobs: one writer node, no stagger, and degenerate node counts
// are clamped to one writer instead of dividing by zero.
func TestSingleRankJobStorage(t *testing.T) {
	m := testModel(1)
	want := m.P.StorageLatency + float64(1<<30)/m.P.StorageNodeBW
	if got := m.WriteTime(1<<30, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("single-node write = %g, want %g (no stagger term)", got, want)
	}
	for _, nodes := range []int{0, -3} {
		if got := m.WriteTime(1<<30, nodes); math.Abs(got-want) > 1e-12 {
			t.Fatalf("nodes=%d not clamped to a single writer: %g vs %g", nodes, got, want)
		}
	}
}

// Stagger grows linearly with writer count — including counts far above the
// rank count (an over-provisioned allocation writes from every node it has).
func TestWriteStaggerScaling(t *testing.T) {
	p := PerlmutterLike()
	p.StorageStagger = 0.5 // exaggerate so the term dominates
	m := New(p, 4)         // 4 ranks per node; "jobs" here are smaller than the node counts below
	base := m.WriteTime(0, 1)
	for _, nodes := range []int{2, 8, 64, 1000} {
		want := base + float64(nodes-1)*0.5
		if got := m.WriteTime(0, nodes); math.Abs(got-want) > 1e-9 {
			t.Fatalf("stagger at %d nodes = %g, want %g", nodes, got, want)
		}
	}
}

// A depth-1 read set (every shard fresh in the restart epoch) must charge
// exactly the classic full-image read: fan-in penalties only start with the
// second epoch of a chain.
func TestChainDepth1ReadEqualsFullRead(t *testing.T) {
	m := testModel(128)
	const bytes = 50 << 30
	reads := []EpochRead{{Epoch: 7, Shards: 512, Bytes: bytes}}
	got := m.RestartReadCost(TierPFS, reads, 4)
	want := m.RestartReadTime(bytes, 4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("depth-1 fan-in read %g != classic full read %g", got, want)
	}
}

// Deeper chains pay: same bytes spread over more epochs must read slower,
// by exactly one open plus the per-shard seeks for each extra epoch.
func TestChainDepthSeekPenalty(t *testing.T) {
	m := testModel(128)
	flat := []EpochRead{{Epoch: 3, Shards: 512, Bytes: 50 << 30}}
	deep := []EpochRead{
		{Epoch: 3, Shards: 312, Bytes: 30 << 30},
		{Epoch: 1, Shards: 120, Bytes: 15 << 30},
		{Epoch: 0, Shards: 80, Bytes: 5 << 30},
	}
	a, b := m.RestartReadCost(TierPFS, flat, 4), m.RestartReadCost(TierPFS, deep, 4)
	wantExtra := 2*m.P.StorageLatency + float64(120+80)*m.P.StorageSeek
	if math.Abs((b-a)-wantExtra) > 1e-9 {
		t.Fatalf("chain penalty = %g, want %g (2 opens + 200 seeks)", b-a, wantExtra)
	}
	// Empty read set: still a restart (fixed relaunch + one open).
	if got := m.RestartReadCost(TierPFS, nil, 4); got != m.P.RestartFixed+m.P.StorageLatency {
		t.Fatalf("empty read set cost %g", got)
	}
}

// The seek and stagger parameters are validated like the rest.
func TestTierParamsValidated(t *testing.T) {
	for _, mutate := range []func(*Params){
		func(p *Params) { p.StorageSeek = -1 },
		func(p *Params) { p.StorageStagger = math.NaN() },
	} {
		p := PerlmutterLike()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("bad storage params accepted: %+v", p)
		}
	}
}
