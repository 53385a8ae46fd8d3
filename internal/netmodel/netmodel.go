// Package netmodel provides the performance model used by the MPI simulator:
// a LogGP-style hierarchical cost model for point-to-point and collective
// communication on a cluster of multi-core nodes, plus a storage model (a
// Lustre-like parallel filesystem) for checkpoint image I/O, including
// restart read fan-in over incremental epoch chains (see storage.go).
//
// All times are in seconds of virtual time. The model is deliberately
// analytic and deterministic: given the same entry times it always produces
// the same exit times, which makes the benchmark harness reproducible.
//
// The default parameters (PerlmutterLike) are calibrated so that the
// simulator lands in the same performance bands the paper reports for the
// Slingshot-11 interconnect: a 4-byte MPI_Bcast over 4 nodes / 512 ranks
// completes in a few microseconds (the paper measured ~255k collective calls
// per second for this configuration).
package netmodel

import (
	"fmt"
	"math"
)

// Params holds every tunable constant of the performance model.
type Params struct {
	// Point-to-point.
	LatencyIntra float64 // one-hop latency between ranks on the same node (s)
	LatencyInter float64 // one-hop latency between ranks on different nodes (s)
	BwIntra      float64 // per-flow bandwidth within a node (B/s)
	BwInter      float64 // per-flow bandwidth across the network (B/s)

	// CPU-side overheads.
	SendOverhead float64 // sender CPU cost to inject a message (s)
	RecvOverhead float64 // receiver CPU cost to retire a message (s)
	CallOverhead float64 // fixed CPU cost of entering any MPI call (s)

	// Reduction compute cost, per byte combined (s/B).
	ReducePerByte float64

	// CollSoftCost is the fixed per-call software cost of any collective
	// (progress engine, algorithm selection, completion). It bounds how fast
	// back-to-back collectives can issue even for ranks that exit early
	// (e.g. a Bcast root), matching the ~1 us per-call floor of production
	// MPI stacks.
	CollSoftCost float64

	// Interposition costs charged by the checkpointing wrappers.
	WrapperCost  float64 // CC/native wrapper: hash + counter increment (s)
	PollInterval float64 // busy-poll period for test loops (2PC, drains) (s)

	// Eager/rendezvous switch for point-to-point messages (bytes). Messages
	// at or below the threshold complete locally at the sender (buffered).
	EagerThreshold int

	// Storage model: the parallel filesystem (Lustre-like) checkpoint images
	// are written to.
	StorageAggBW   float64 // aggregate filesystem bandwidth (B/s)
	StorageNodeBW  float64 // per-node achievable bandwidth (B/s)
	StorageLatency float64 // fixed open/close/metadata cost per operation (s)
	StorageSeek    float64 // per-shard positioning cost on chained restart reads (s)
	StorageStagger float64 // per-additional-node open stagger (metadata contention) (s)
	RestartFixed   float64 // fixed lower-half re-initialization cost (s)
}

// PerlmutterLike returns parameters tuned to resemble a Slingshot-11 system
// with 128 ranks per node. Absolute values are approximate by design; the
// experiments only depend on the resulting ratios.
func PerlmutterLike() Params {
	return Params{
		LatencyIntra:   150e-9,
		LatencyInter:   1.5e-6,
		BwIntra:        16e9,
		BwInter:        10e9,
		SendOverhead:   80e-9,
		RecvOverhead:   80e-9,
		CallOverhead:   60e-9,
		ReducePerByte:  0.05e-9,
		CollSoftCost:   3.5e-6,
		WrapperCost:    40e-9,
		PollInterval:   120e-9,
		EagerThreshold: 64 << 10,
		StorageAggBW:   40e9,
		StorageNodeBW:  20e9,
		StorageLatency: 0.25,
		StorageSeek:    5e-3,
		StorageStagger: 2e-3,
		RestartFixed:   2.0,
	}
}

// EthernetLike returns parameters resembling a commodity gigabit cluster.
// Useful for the ablation that shows why older networks tolerated 2PC.
func EthernetLike() Params {
	p := PerlmutterLike()
	p.LatencyInter = 30e-6
	p.BwInter = 100e6
	return p
}

// Validate reports an error if any parameter would produce nonsensical
// (negative or non-finite) costs.
func (p Params) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("netmodel: parameter %s = %v out of range", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"LatencyIntra", p.LatencyIntra}, {"LatencyInter", p.LatencyInter},
		{"BwIntra", p.BwIntra}, {"BwInter", p.BwInter},
		{"SendOverhead", p.SendOverhead}, {"RecvOverhead", p.RecvOverhead},
		{"CollSoftCost", p.CollSoftCost},
		{"CallOverhead", p.CallOverhead}, {"ReducePerByte", p.ReducePerByte},
		{"WrapperCost", p.WrapperCost}, {"PollInterval", p.PollInterval},
		{"StorageAggBW", p.StorageAggBW}, {"StorageNodeBW", p.StorageNodeBW},
		{"StorageLatency", p.StorageLatency}, {"StorageSeek", p.StorageSeek},
		{"StorageStagger", p.StorageStagger}, {"RestartFixed", p.RestartFixed},
	} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	if p.BwIntra == 0 || p.BwInter == 0 {
		return fmt.Errorf("netmodel: bandwidths must be positive")
	}
	if p.EagerThreshold < 0 {
		return fmt.Errorf("netmodel: EagerThreshold must be >= 0")
	}
	return nil
}

// Model binds parameters to a concrete cluster shape (ranks per node).
type Model struct {
	P   Params
	PPN int // ranks per node; world rank r lives on node r/PPN
}

// New returns a Model, panicking on invalid configuration (programmer error).
func New(p Params, ppn int) *Model {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if ppn <= 0 {
		panic("netmodel: ranks per node must be positive")
	}
	return &Model{P: p, PPN: ppn}
}

// NodeOf returns the node index hosting the given world rank.
func (m *Model) NodeOf(worldRank int) int { return worldRank / m.PPN }

// SameNode reports whether two world ranks share a node.
func (m *Model) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// P2PCost returns the transit time of a message of size bytes from world
// rank src to world rank dst (excluding sender/receiver CPU overheads).
func (m *Model) P2PCost(src, dst, size int) float64 {
	if m.SameNode(src, dst) {
		return m.P.LatencyIntra + float64(size)/m.P.BwIntra
	}
	return m.P.LatencyInter + float64(size)/m.P.BwInter
}

// hop returns the per-hop cost used in tree-structured collectives for a
// group spanning the given number of nodes.
func (m *Model) hop(interNode bool, size int) float64 {
	if interNode {
		return m.P.LatencyInter + float64(size)/m.P.BwInter
	}
	return m.P.LatencyIntra + float64(size)/m.P.BwIntra
}

// log2ceil returns ceil(log2(n)) with log2ceil(0)=log2ceil(1)=0.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	d := 0
	for v := n - 1; v > 0; v >>= 1 {
		d++
	}
	return d
}

// Geometry describes the placement of a communicator's member ranks, which
// determines how many network hops its collectives pay.
type Geometry struct {
	N        int  // number of member ranks
	Nodes    int  // distinct nodes spanned
	MaxPPN   int  // maximum members co-located on one node
	HasInter bool // true if any pair of members is on different nodes
}

// GeometryOf computes the Geometry for a set of world ranks.
func (m *Model) GeometryOf(worldRanks []int) Geometry {
	perNode := make(map[int]int)
	for _, r := range worldRanks {
		perNode[m.NodeOf(r)]++
	}
	g := Geometry{N: len(worldRanks), Nodes: len(perNode)}
	for _, c := range perNode {
		if c > g.MaxPPN {
			g.MaxPPN = c
		}
	}
	g.HasInter = g.Nodes > 1
	return g
}

// treeCost returns the completion latency of a hierarchical tree-structured
// dissemination (broadcast/reduce shaped) over geometry g with payload size.
// Inter-node stage first (binomial tree over nodes), then intra-node stage.
// Production collectives pipeline large payloads down the tree (chain /
// scatter-allgather algorithms), so the bandwidth term is paid once, not
// once per hop — this is what makes every algorithm's overhead vanish at
// 1 MB messages (paper 5.1.1).
func (m *Model) treeCost(g Geometry, size int) float64 {
	c := float64(log2ceil(g.Nodes)) * m.hop(true, 0)
	c += float64(log2ceil(g.MaxPPN)) * m.hop(false, 0)
	if c == 0 { // single-member group: still pay one local hop
		c = m.hop(false, 0)
	}
	return c + float64(size)/m.bwFor(g)
}

// depthOf returns the tree depth (number of hops from the root) of comm rank
// i in a binomial tree rooted at comm rank root over n ranks. Rank layout is
// the classic relative-rank binomial tree.
func depthOf(i, root, n int) int {
	rel := i - root
	if rel < 0 {
		rel += n
	}
	d := 0
	for v := rel; v > 0; v >>= 1 {
		d++
	}
	return d
}

// maxF returns the maximum of a non-empty slice.
func maxF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
