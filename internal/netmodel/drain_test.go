package netmodel

import (
	"math"
	"testing"
)

func drainModel(t testing.TB) *Model {
	t.Helper()
	return New(PerlmutterLike(), 4)
}

// TestDrainSingleJobParity pins the regression contract with the unscheduled
// pricing: a single tenant whose drains never overlap must see every request
// finish exactly Standalone after arrival, with zero queueing excess, under
// every policy — and Standalone must be bit-identical to the TierWriteTime
// figure the checkpoint coordinator reports as CheckpointStats.TierDrainVT.
func TestDrainSingleJobParity(t *testing.T) {
	m := drainModel(t)
	cases := []struct {
		bytes int64
		nodes int
		vt    float64
	}{
		{1 << 20, 1, 0},
		{398 << 20, 4, 10},
		{25 << 30, 16, 1000},
		{0, 8, 2000}, // empty epoch: free on any tier
	}
	for _, policy := range []DrainPolicy{DrainFIFO, DrainFairShare, DrainPriority} {
		s := NewDrainScheduler(m, policy)
		var ids []int
		vt := 0.0
		for _, c := range cases {
			// Space arrivals far enough apart that the server is idle.
			vt += 1e6
			ids = append(ids, s.Enqueue(DrainRequest{Job: 0, Bytes: c.bytes, Nodes: c.nodes, VT: vt}))
		}
		for i, c := range cases {
			r, ok := s.Result(ids[i])
			if !ok {
				t.Fatalf("%v: ticket %d not found", policy, ids[i])
			}
			want := m.TierWriteTime(TierPFS, c.bytes, c.nodes)
			if r.Standalone != want {
				t.Fatalf("%v: standalone %g != EpochDrain pricing %g", policy, r.Standalone, want)
			}
			if r.QueueVT != 0 {
				t.Fatalf("%v: single tenant saw queueing excess %g", policy, r.QueueVT)
			}
			// Finish itself rides the simulation clock, so an ulp of the
			// arrival magnitude is tolerated; the exact-parity contract is
			// carried by Standalone and the zero QueueVT above.
			if got := r.Finish - r.VT; math.Abs(got-want) > 1e-9*math.Max(1, r.VT) {
				t.Fatalf("%v: finish-arrival %g != standalone %g", policy, got, want)
			}
		}
	}
}

// TestDrainZeroBandwidthTier checks the degenerate tier: positive bytes on a
// zero-bandwidth target take forever, never finish, never produce NaN, and
// block admission for good.
func TestDrainZeroBandwidthTier(t *testing.T) {
	p := PerlmutterLike()
	p.StorageNodeBW, p.StorageAggBW = 0, 0 // a PFS with no bandwidth at all
	m := New(p, 1)
	for _, policy := range []DrainPolicy{DrainFIFO, DrainFairShare, DrainPriority} {
		s := NewDrainScheduler(m, policy)
		s.SetCapacity(100)
		s.Enqueue(DrainRequest{Job: 0, Bytes: 64, VT: 1})
		r, _ := s.Result(0)
		if !math.IsInf(r.Standalone, 1) || !math.IsInf(r.Finish, 1) {
			t.Fatalf("zero-bandwidth drain should never finish: standalone=%g finish=%g", r.Standalone, r.Finish)
		}
		if math.IsNaN(r.QueueVT) || r.QueueVT != 0 {
			t.Fatalf("zero-bandwidth drain queue excess must clamp to 0, got %g", r.QueueVT)
		}
		if got := s.Backlog(1e12); got != 64 {
			t.Fatalf("backlog should hold the stuck bytes forever, got %d", got)
		}
		if d := s.AdmitDelay(1, 64); !math.IsInf(d, 1) {
			t.Fatalf("admission behind a stuck drain must be +Inf, got %g", d)
		}
	}
}

// TestDrainBacklogAtCapacity exercises the admission bound exactly at the
// boundary: a write that fits to the byte is admitted immediately, one byte
// more waits precisely until the blocking drain lands, and a write larger
// than the whole tier can never be admitted.
func TestDrainBacklogAtCapacity(t *testing.T) {
	m := drainModel(t)
	const capacity = int64(1 << 30)
	const staged = int64(600 << 20)
	s := NewDrainScheduler(m, DrainFIFO)
	s.SetCapacity(capacity)
	s.Enqueue(DrainRequest{Job: 0, Bytes: staged, Nodes: 2, VT: 5})
	service := m.TierWriteTime(TierPFS, staged, 2)

	if d := s.AdmitDelay(5, capacity-staged); d != 0 {
		t.Fatalf("write fitting exactly at capacity must admit now, got delay %g", d)
	}
	if d := s.AdmitDelay(5, capacity-staged+1); math.Abs(d-service) > 1e-9 {
		t.Fatalf("one byte over capacity must wait for the drain (%g), got %g", service, d)
	}
	if d := s.AdmitDelay(5, capacity+1); !math.IsInf(d, 1) {
		t.Fatalf("write larger than the tier must never admit, got %g", d)
	}
	if b := s.Backlog(5); b != staged {
		t.Fatalf("backlog at arrival = %d, want %d", b, staged)
	}
}

// TestDrainCompletesAsWriteArrives pins the free-the-instant-it-lands rule:
// a write arriving at exactly the drain's finish time sees the bytes gone —
// zero backlog, zero admission delay.
func TestDrainCompletesAsWriteArrives(t *testing.T) {
	m := drainModel(t)
	const staged = int64(512 << 20)
	s := NewDrainScheduler(m, DrainFIFO)
	s.SetCapacity(staged) // only one epoch fits at a time
	s.Enqueue(DrainRequest{Job: 0, Bytes: staged, Nodes: 4, VT: 1})
	finish := 1 + m.TierWriteTime(TierPFS, staged, 4)

	if b := s.Backlog(finish); b != 0 {
		t.Fatalf("backlog at the exact finish instant = %d, want 0", b)
	}
	if d := s.AdmitDelay(finish, staged); d != 0 {
		t.Fatalf("write arriving at the exact finish must admit now, got %g", d)
	}
	// And one enqueued there gets the full bandwidth: no queueing excess.
	id := s.Enqueue(DrainRequest{Job: 1, Bytes: staged, Nodes: 4, VT: finish})
	if r, _ := s.Result(id); r.QueueVT != 0 {
		t.Fatalf("back-to-back drain sees excess %g, want 0", r.QueueVT)
	}
}

// TestDrainFairShareVsFIFO pins the ordering invariants that distinguish the
// policies: under FIFO a small request is stuck behind a big head-of-line
// request (head unslowed, waiter pays the full residual); under fair-share
// the small request overtakes the big one, and both finish later than their
// uncontended times.
func TestDrainFairShareVsFIFO(t *testing.T) {
	m := drainModel(t)
	big := DrainRequest{Job: 0, Epoch: 0, Bytes: 8 << 30, Nodes: 4, VT: 0}
	small := DrainRequest{Job: 1, Epoch: 0, Bytes: 64 << 20, Nodes: 4, VT: 0}

	fifo := NewDrainScheduler(m, DrainFIFO)
	bigF := fifo.Enqueue(big)
	smallF := fifo.Enqueue(small)
	fair := NewDrainScheduler(m, DrainFairShare)
	bigS := fair.Enqueue(big)
	smallS := fair.Enqueue(small)

	fb, _ := fifo.Result(bigF)
	fs, _ := fifo.Result(smallF)
	if fb.QueueVT != 0 {
		t.Fatalf("FIFO head of line must be unslowed, excess %g", fb.QueueVT)
	}
	if fs.Finish <= fb.Finish {
		t.Fatalf("FIFO: small (finish %g) must wait behind big (finish %g)", fs.Finish, fb.Finish)
	}
	if want := fb.Finish - fs.VT; math.Abs(fs.QueueVT-want) > 1e-9 {
		t.Fatalf("FIFO waiter excess %g, want the head's residual %g", fs.QueueVT, want)
	}

	sb, _ := fair.Result(bigS)
	ss, _ := fair.Result(smallS)
	if ss.Finish >= sb.Finish {
		t.Fatalf("fair-share: small (finish %g) must overtake big (finish %g)", ss.Finish, sb.Finish)
	}
	if ss.QueueVT <= 0 || sb.QueueVT <= 0 {
		t.Fatalf("fair-share: both tenants must pay a sharing excess, got %g and %g", ss.QueueVT, sb.QueueVT)
	}
	// Processor sharing conserves work: with both requests started at t=0,
	// the small one runs at rate 1/2 until it completes at 2*standalone.
	if want := 2 * ss.Standalone; math.Abs(ss.Finish-want) > 1e-9 {
		t.Fatalf("fair-share small finish %g, want %g", ss.Finish, want)
	}
	// The big one serializes after: same total work, same last-finish time.
	if math.Abs(sb.Finish-fs.Finish) > 1e-6 {
		t.Fatalf("fair-share must conserve total work: last finish %g vs FIFO %g", sb.Finish, fs.Finish)
	}
}

// TestDrainPriorityOrdering checks the priority discipline: among waiters
// queued behind a busy server, the highest Priority value dispatches first
// regardless of arrival order, but an in-flight drain is never preempted.
func TestDrainPriorityOrdering(t *testing.T) {
	m := drainModel(t)
	s := NewDrainScheduler(m, DrainPriority)
	// Both waiters arrive while the head is still in flight.
	head := s.Enqueue(DrainRequest{Job: 0, Bytes: 4 << 30, Nodes: 4, VT: 0})
	low := s.Enqueue(DrainRequest{Job: 1, Bytes: 1 << 30, Nodes: 4, VT: 0.1, Priority: 1})
	high := s.Enqueue(DrainRequest{Job: 2, Bytes: 1 << 30, Nodes: 4, VT: 0.2, Priority: 9})

	rh, _ := s.Result(head)
	rl, _ := s.Result(low)
	rhi, _ := s.Result(high)
	if rh.QueueVT != 0 {
		t.Fatalf("in-flight head must not be preempted, excess %g", rh.QueueVT)
	}
	if !(rhi.Start >= rh.Finish && rhi.Finish <= rl.Start) {
		t.Fatalf("priority 9 must run between head and priority 1: head fin %g, high [%g,%g], low start %g",
			rh.Finish, rhi.Start, rhi.Finish, rl.Start)
	}
}

// TestDrainArrivalClamp checks the monotone-arrival rule: a request enqueued
// with a VT earlier than the logged high-water mark arrives at the mark.
func TestDrainArrivalClamp(t *testing.T) {
	s := NewDrainScheduler(drainModel(t), DrainFIFO)
	s.Enqueue(DrainRequest{Job: 0, Bytes: 1 << 20, VT: 50})
	id := s.Enqueue(DrainRequest{Job: 1, Bytes: 1 << 20, VT: 10})
	if r, _ := s.Result(id); r.VT != 50 {
		t.Fatalf("out-of-order arrival must clamp to 50, got %g", r.VT)
	}
}

// TestDrainStatsPartition checks the accounting identity the race-detector
// stress test relies on: per-job stats partition the totals exactly.
func TestDrainStatsPartition(t *testing.T) {
	m := drainModel(t)
	for _, policy := range []DrainPolicy{DrainFIFO, DrainFairShare, DrainPriority} {
		s := NewDrainScheduler(m, policy)
		var want int64
		for i := 0; i < 12; i++ {
			b := int64(i+1) << 20
			want += b
			s.Enqueue(DrainRequest{Job: i % 3, Epoch: i / 3, Bytes: b, Nodes: 2, VT: float64(i)})
		}
		total := s.Stats()
		if total.Bytes != want || total.Requests != 12 {
			t.Fatalf("%v: totals %+v, want %d bytes / 12 requests", policy, total, want)
		}
		var sum DrainJobStats
		for job := 0; job < 3; job++ {
			js := s.JobStats(job)
			sum.Requests += js.Requests
			sum.Bytes += js.Bytes
			sum.ServiceVT += js.ServiceVT
			sum.QueueVT += js.QueueVT
		}
		// Counts and bytes partition exactly; the virtual-time sums are
		// added in a different order per job, so last-bit drift is allowed.
		if sum.Requests != total.Requests || sum.Bytes != total.Bytes ||
			math.Abs(sum.ServiceVT-total.ServiceVT) > 1e-9 ||
			math.Abs(sum.QueueVT-total.QueueVT) > 1e-9 {
			t.Fatalf("%v: job stats %+v do not partition totals %+v", policy, sum, total)
		}
	}
}

func TestParseDrainPolicy(t *testing.T) {
	for in, want := range map[string]DrainPolicy{
		"fifo": DrainFIFO, "fair": DrainFairShare, "fairshare": DrainFairShare,
		"fair-share": DrainFairShare, "priority": DrainPriority, "prio": DrainPriority,
	} {
		got, err := ParseDrainPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseDrainPolicy(%q) = %v, %v", in, got, err)
		}
		if got.String() == "unknown" {
			t.Fatalf("policy %v has no name", got)
		}
	}
	if _, err := ParseDrainPolicy("round-robin"); err == nil {
		t.Fatal("unknown policy must error")
	}
}
