package trace

import (
	"testing"
	"testing/quick"

	"mana/internal/netmodel"
)

func TestCollectiveCounting(t *testing.T) {
	var c Counters
	c.Collective(netmodel.Bcast, 100, false)
	c.Collective(netmodel.Allreduce, 8, true)
	c.Collective(netmodel.Bcast, 4, false)
	if c.CollBlocking != 2 || c.CollNonblocking != 1 || c.CollCalls() != 3 {
		t.Fatalf("counts wrong: %+v", c)
	}
	if c.PerKind[netmodel.Bcast] != 2 || c.PerKind[netmodel.Allreduce] != 1 {
		t.Fatalf("per-kind wrong: %v", c.PerKind)
	}
	if c.BytesSent != 112 {
		t.Fatalf("bytes %d", c.BytesSent)
	}
}

func TestAdd(t *testing.T) {
	a := Counters{CollBlocking: 1, P2PSends: 2, P2PRecvs: 3, Tests: 4,
		Waits: 5, BytesSent: 6, BytesRecv: 7, WrapperCalls: 8,
		TargetUpdatesSent: 9, TargetUpdatesRecv: 10, Barriers2PC: 11, DrainTests: 12}
	a.PerKind[2] = 13
	b := a
	a.Add(&b)
	if a.CollBlocking != 2 || a.P2PCalls() != 10 || a.PerKind[2] != 26 ||
		a.DrainTests != 24 || a.TargetUpdatesSent != 18 {
		t.Fatalf("add wrong: %+v", a)
	}
}

func TestRates(t *testing.T) {
	total := &Counters{CollBlocking: 1000, P2PSends: 300, P2PRecvs: 200}
	r := RatesOf(total, 10, 2.0)
	// 1000 calls / 10 ranks / 2 s = 50 coll/s per rank.
	if r.CollPerSec != 50 {
		t.Fatalf("coll rate %g", r.CollPerSec)
	}
	if r.P2PPerSec != 25 {
		t.Fatalf("p2p rate %g", r.P2PPerSec)
	}
	if z := RatesOf(total, 0, 2.0); z.CollPerSec != 0 {
		t.Fatal("zero ranks should yield zero rates")
	}
	if z := RatesOf(total, 10, 0); z.CollPerSec != 0 {
		t.Fatal("zero runtime should yield zero rates")
	}
}

// Property: Add is commutative on call totals.
func TestPropertyAddCommutative(t *testing.T) {
	f := func(a1, a2, b1, b2 uint16) bool {
		x := Counters{CollBlocking: int64(a1), P2PSends: int64(a2)}
		y := Counters{CollBlocking: int64(b1), P2PSends: int64(b2)}
		xy, yx := x, y
		xy.Add(&y)
		yx.Add(&x)
		return xy.CollCalls() == yx.CollCalls() && xy.P2PCalls() == yx.P2PCalls()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
