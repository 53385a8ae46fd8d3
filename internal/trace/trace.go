// Package trace provides per-rank accounting of MPI activity: how many
// collective and point-to-point calls a rank made, how many bytes it moved,
// and how much protocol traffic the checkpointing algorithms added. The
// paper's Table 1 (collective and point-to-point calls per second) is
// regenerated directly from these counters.
//
// Counters are owned by a single rank goroutine and are therefore plain
// ints; aggregation happens after the ranks have joined.
package trace

import "mana/internal/netmodel"

// Counters accumulates one rank's activity.
type Counters struct {
	CollBlocking    int64 // blocking collective calls
	CollNonblocking int64 // non-blocking collective initiations
	P2PSends        int64
	P2PRecvs        int64
	Tests           int64 // MPI_Test-style completion polls
	Waits           int64
	BytesSent       int64
	BytesRecv       int64
	PerKind         [16]int64 // indexed by netmodel.CollKind

	// Checkpoint-protocol accounting.
	WrapperCalls      int64 // interposed MPI calls
	TargetUpdatesSent int64 // CC target-update messages sent
	TargetUpdatesRecv int64
	Barriers2PC       int64 // extra barriers inserted by 2PC
	DrainTests        int64 // test-loop iterations while draining
}

// Collective records one collective call (blocking or not).
func (c *Counters) Collective(kind netmodel.CollKind, bytes int, nonblocking bool) {
	if nonblocking {
		c.CollNonblocking++
	} else {
		c.CollBlocking++
	}
	if int(kind) < len(c.PerKind) {
		c.PerKind[kind]++
	}
	c.BytesSent += int64(bytes)
}

// CollCalls returns the total number of collective calls (blocking +
// non-blocking initiations).
func (c *Counters) CollCalls() int64 { return c.CollBlocking + c.CollNonblocking }

// P2PCalls returns the total number of point-to-point calls.
func (c *Counters) P2PCalls() int64 { return c.P2PSends + c.P2PRecvs }

// Add accumulates other into c (used when aggregating ranks).
func (c *Counters) Add(other *Counters) {
	c.CollBlocking += other.CollBlocking
	c.CollNonblocking += other.CollNonblocking
	c.P2PSends += other.P2PSends
	c.P2PRecvs += other.P2PRecvs
	c.Tests += other.Tests
	c.Waits += other.Waits
	c.BytesSent += other.BytesSent
	c.BytesRecv += other.BytesRecv
	for i := range c.PerKind {
		c.PerKind[i] += other.PerKind[i]
	}
	c.WrapperCalls += other.WrapperCalls
	c.TargetUpdatesSent += other.TargetUpdatesSent
	c.TargetUpdatesRecv += other.TargetUpdatesRecv
	c.Barriers2PC += other.Barriers2PC
	c.DrainTests += other.DrainTests
}

// Rates summarizes per-second call rates over a run, matching the paper's
// Table 1 definition: the average number of calls per second over all MPI
// processes.
type Rates struct {
	CollPerSec float64
	P2PPerSec  float64
}

// RatesOf computes Table 1 rates from aggregated counters, the number of
// ranks, and the total virtual runtime in seconds.
func RatesOf(total *Counters, ranks int, runtime float64) Rates {
	if ranks <= 0 || runtime <= 0 {
		return Rates{}
	}
	perRank := 1.0 / float64(ranks)
	return Rates{
		CollPerSec: float64(total.CollCalls()) * perRank / runtime,
		P2PPerSec:  float64(total.P2PCalls()) * perRank / runtime,
	}
}
