package netmodel

// Multi-tenant drain scheduling: when N concurrent jobs stage checkpoint
// epochs in the burst tier, their background burst→PFS drains no longer
// happen in isolation — they compete with each other for the PFS tier's
// bandwidth, and the backlog of not-yet-drained epochs occupies burst-buffer
// capacity that the next epoch's writes need. A DrainScheduler arbitrates
// that shared bandwidth: each drain request is priced at its uncontended
// TierWriteTime (exactly the figure the checkpoint coordinator reports as
// CheckpointStats.TierDrainVT), and the scheduler's arbitration policy
// decides how much LATER than that a request actually finishes when others
// are in flight. The excess is the contention signal (QueueVT); the
// outstanding bytes are the backlog that, bounded by a capacity, produces
// backpressure — admission delays and direct-to-PFS fallback — in the
// checkpoint coordinator.
//
// The scheduler is deterministic and purely virtual-time: it keeps an
// append-only log of requests and every query replays the arbitration from
// the beginning. Request counts are small (one per committed epoch), so the
// quadratic replay is far cheaper than maintaining incremental simulation
// state, and a query never mutates anything — the same log always yields
// the same schedule.

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// DrainPolicy selects how a DrainScheduler arbitrates the drain tier's
// bandwidth between outstanding requests.
type DrainPolicy int

const (
	// DrainFIFO serves whole requests in arrival order: one drain owns the
	// full tier bandwidth until it completes, then the oldest waiter starts.
	DrainFIFO DrainPolicy = iota
	// DrainFairShare processor-shares the tier: k in-flight drains each
	// progress at 1/k of the uncontended rate, so small requests are not
	// stuck behind large ones but every request slows as tenancy grows.
	DrainFairShare
	// DrainPriority is FIFO with preference: at each dispatch the waiting
	// request with the highest Priority value starts next (ties break by
	// arrival order). Service is non-preemptive — an in-flight drain is
	// never interrupted by a later high-priority arrival.
	DrainPriority
)

func (p DrainPolicy) String() string {
	switch p {
	case DrainFIFO:
		return "fifo"
	case DrainFairShare:
		return "fair"
	case DrainPriority:
		return "priority"
	}
	return "unknown"
}

// ParseDrainPolicy maps the flag spellings accepted by ccrun/ccbench onto a
// DrainPolicy.
func ParseDrainPolicy(s string) (DrainPolicy, error) {
	switch s {
	case "fifo":
		return DrainFIFO, nil
	case "fair", "fairshare", "fair-share":
		return DrainFairShare, nil
	case "priority", "prio":
		return DrainPriority, nil
	}
	return 0, fmt.Errorf("unknown drain policy %q (want fifo, fair, or priority)", s)
}

// DrainRequest is one epoch's burst→PFS drain: which job committed it, the
// bytes staged in the burst tier, the writer-node fan-out the drain streams
// at, and the virtual time the epoch sealed (the drain becomes eligible).
type DrainRequest struct {
	Job      int     // owning job, the accounting key
	Epoch    int     // the job's epoch number (informational)
	Bytes    int64   // staged bytes to migrate to the PFS
	Nodes    int     // writer nodes the drain fans out over (<=0 → 1)
	VT       float64 // arrival: the virtual time the epoch sealed
	Priority int     // DrainPriority rank (higher serves first)
}

// DrainResult is one request's resolved schedule under the current log.
type DrainResult struct {
	DrainRequest         // as admitted (VT is the clamped effective arrival)
	ID           int     // the Enqueue ticket
	Standalone   float64 // uncontended service time: TierWriteTime on the target
	Start        float64 // VT service began (fair-share: the arrival itself)
	Finish       float64 // VT the drain completes under contention
	// QueueVT is the excess over the uncontended drain — semantically
	// Finish - VT - Standalone, but accumulated exactly during arbitration
	// so an uncontended request reports literally zero (no float residue
	// from large arrival times).
	QueueVT float64
}

// DrainJobStats aggregates one job's (or the whole scheduler's) accounting.
type DrainJobStats struct {
	Requests  int     // drains enqueued
	Bytes     int64   // bytes drained
	ServiceVT float64 // summed uncontended service time
	QueueVT   float64 // summed contention excess
}

// DrainScheduler arbitrates one storage tier's bandwidth between the drain
// requests of many concurrent jobs. Arrivals are clamped monotone: a request
// enqueued with a VT earlier than the latest logged arrival is treated as
// arriving at that high-water mark (the scheduler is a shared service that
// receives requests in the order callers issue them; deterministic drivers
// enqueue in global VT order and the clamp never fires). All methods are
// safe for concurrent use.
type DrainScheduler struct {
	mu       sync.Mutex
	m        *Model
	policy   DrainPolicy
	target   StorageTier
	capacity int64
	reqs     []DrainRequest // effective arrivals, monotone non-decreasing VT
	stand    []float64      // cached standalone service per request
}

// NewDrainScheduler returns a scheduler arbitrating the PFS tier's bandwidth
// (the drain target) under the given policy, with unbounded staging capacity
// until SetCapacity is called.
func NewDrainScheduler(m *Model, policy DrainPolicy) *DrainScheduler {
	return &DrainScheduler{m: m, policy: policy, target: TierPFS}
}

// SetCapacity bounds the burst-tier bytes the drain backlog may occupy;
// AdmitDelay prices waiting for room under the bound. Zero or negative means
// unbounded (no backpressure). Set before the first Enqueue — the bound is a
// configuration, not a schedule input, but changing it mid-run would make
// earlier admission answers inconsistent with later ones.
func (s *DrainScheduler) SetCapacity(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.capacity = bytes
}

// Len returns the number of requests logged so far.
func (s *DrainScheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reqs)
}

// Enqueue logs one drain request and returns its ticket (the index Result
// resolves). The request's standalone service is priced immediately at the
// target tier's uncontended TierWriteTime — identical to the figure the
// checkpoint coordinator reports as CheckpointStats.TierDrainVT — so a
// single-tenant scheduler reproduces the unscheduled pricing exactly.
func (s *DrainScheduler) Enqueue(r DrainRequest) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Nodes <= 0 {
		r.Nodes = 1
	}
	if r.Bytes < 0 {
		r.Bytes = 0
	}
	if math.IsNaN(r.VT) || r.VT < 0 {
		r.VT = 0
	}
	if n := len(s.reqs); n > 0 && r.VT < s.reqs[n-1].VT {
		r.VT = s.reqs[n-1].VT
	}
	id := len(s.reqs)
	s.reqs = append(s.reqs, r)
	s.stand = append(s.stand, s.m.TierWriteTime(s.target, r.Bytes, r.Nodes))
	return id
}

// Drain resolves the full schedule — every logged request's start, finish,
// and contention excess — assuming no further arrivals. The scheduler is not
// consumed: the log is replayed, not advanced, so later Enqueues extend the
// same history.
func (s *DrainScheduler) Drain() []DrainResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completionsLocked()
}

// Result resolves one ticket's schedule under the current log. The second
// return is false for a ticket Enqueue never issued.
func (s *DrainScheduler) Result(id int) (DrainResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.reqs) {
		return DrainResult{}, false
	}
	return s.completionsLocked()[id], true
}

// Backlog returns the staged bytes still undrained at vt: every request that
// has arrived by vt and not finished by it. A drain completing exactly at vt
// has freed its bytes (capacity is available the instant the drain lands).
func (s *DrainScheduler) Backlog(vt float64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, r := range s.completionsLocked() {
		if r.VT <= vt && !(r.Finish <= vt) {
			total += r.Bytes
		}
	}
	return total
}

// AdmitDelay reports how long past vt a new bytes-sized burst write must
// wait for the drain backlog to leave it room under the capacity bound:
// zero when capacity is unbounded or room exists at vt, +Inf when the write
// alone exceeds the capacity or the blocking drains never finish, and
// otherwise the delay until enough backlog has drained. The answer assumes
// no arrivals beyond the current log — exactly the caller's position, since
// the write being admitted IS the next arrival.
func (s *DrainScheduler) AdmitDelay(vt float64, bytes int64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		return 0
	}
	if bytes > s.capacity {
		return math.Inf(1)
	}
	res := s.completionsLocked()
	fits := func(t float64) bool {
		var backlog int64
		for _, r := range res {
			if r.VT <= t && !(r.Finish <= t) {
				backlog += r.Bytes
			}
		}
		return backlog+bytes <= s.capacity
	}
	if fits(vt) {
		return 0
	}
	// Backlog only changes at arrival and finish events; scan them in order.
	var events []float64
	for _, r := range res {
		if r.VT > vt {
			events = append(events, r.VT)
		}
		if r.Finish > vt && !math.IsInf(r.Finish, 1) {
			events = append(events, r.Finish)
		}
	}
	sort.Float64s(events)
	for _, t := range events {
		if fits(t) {
			return t - vt
		}
	}
	return math.Inf(1)
}

// JobStats aggregates one job's accounting over the full schedule.
func (s *DrainScheduler) JobStats(job int) DrainJobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st DrainJobStats
	for _, r := range s.completionsLocked() {
		if r.Job == job {
			accumulate(&st, r)
		}
	}
	return st
}

// Stats aggregates every job's accounting over the full schedule; by
// construction it equals the field-wise sum of JobStats over all jobs (the
// per-job partition is exact — no request is double-counted or dropped).
func (s *DrainScheduler) Stats() DrainJobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st DrainJobStats
	for _, r := range s.completionsLocked() {
		accumulate(&st, r)
	}
	return st
}

func accumulate(st *DrainJobStats, r DrainResult) {
	st.Requests++
	st.Bytes += r.Bytes
	st.ServiceVT += r.Standalone
	st.QueueVT += r.QueueVT
}

// completionsLocked replays the arbitration over the whole log and resolves
// every request's schedule. Caller holds mu.
func (s *DrainScheduler) completionsLocked() []DrainResult {
	res := make([]DrainResult, len(s.reqs))
	for i, r := range s.reqs {
		res[i] = DrainResult{
			DrainRequest: r, ID: i, Standalone: s.stand[i],
			Start: math.Inf(1), Finish: math.Inf(1),
		}
	}
	if s.policy == DrainFairShare {
		s.fairShareLocked(res)
	} else {
		s.singleServerLocked(res)
	}
	for i := range res {
		// Defensive clamp: the disciplines accumulate the excess exactly and
		// never go negative, but a NaN (Inf-Inf on a dead tier) must not
		// poison downstream sums.
		if q := res[i].QueueVT; math.IsNaN(q) || q < 0 {
			res[i].QueueVT = 0
		}
	}
	return res
}

// singleServerLocked runs the FIFO/priority disciplines: one drain at a time
// owns the tier, waiters queue, and the policy picks who dispatches next.
func (s *DrainScheduler) singleServerLocked(res []DrainResult) {
	n := len(s.reqs)
	clock := 0.0
	var queue []int
	for i := 0; i < n || len(queue) > 0; {
		if len(queue) == 0 && clock < s.reqs[i].VT {
			clock = s.reqs[i].VT // idle: jump to the next arrival
		}
		for i < n && s.reqs[i].VT <= clock {
			queue = append(queue, i)
			i++
		}
		pick := 0
		if s.policy == DrainPriority {
			for k := 1; k < len(queue); k++ {
				if s.reqs[queue[k]].Priority > s.reqs[queue[pick]].Priority {
					pick = k
				}
			}
		}
		id := queue[pick]
		queue = append(queue[:pick], queue[pick+1:]...)
		res[id].Start = clock
		// Once dispatched, service takes exactly Standalone: the whole
		// excess is the time spent waiting in the queue (zero when the
		// server was idle at arrival — exact, no float residue).
		res[id].QueueVT = clock - s.reqs[id].VT
		clock += s.stand[id]
		res[id].Finish = clock
	}
}

// fairShareLocked runs the processor-sharing discipline: k in-flight drains
// each progress at 1/k of the uncontended rate. The loop advances to the
// nearer of the next completion horizon and the next arrival.
func (s *DrainScheduler) fairShareLocked(res []DrainResult) {
	n := len(s.reqs)
	clock := 0.0
	rem := make([]float64, n)
	var active []int
	for i := 0; i < n || len(active) > 0; {
		if len(active) == 0 && clock < s.reqs[i].VT {
			clock = s.reqs[i].VT
		}
		for i < n && s.reqs[i].VT <= clock {
			rem[i] = s.stand[i]
			res[i].Start = s.reqs[i].VT
			active = append(active, i)
			i++
		}
		minRem := math.Inf(1)
		for _, a := range active {
			if rem[a] < minRem {
				minRem = rem[a]
			}
		}
		if math.IsInf(minRem, 1) && i >= n {
			// Only zero-bandwidth requests remain: they never finish.
			for _, a := range active {
				res[a].Finish = math.Inf(1)
			}
			return
		}
		nextArr := math.Inf(1)
		if i < n {
			nextArr = s.reqs[i].VT
		}
		k := float64(len(active))
		var until float64 // share everyone gets before the next event
		if horizon := clock + minRem*k; horizon <= nextArr {
			until, clock = minRem, horizon
		} else {
			until, clock = (nextArr-clock)/k, nextArr
		}
		live := active[:0]
		for _, a := range active {
			rem[a] -= until
			// An interval granting `until` work lasts until*k: the excess
			// over running alone is until*(k-1) — exactly zero while the
			// request has the tier to itself.
			res[a].QueueVT += until * (k - 1)
			if rem[a] <= 0 {
				res[a].Finish = clock
			} else {
				live = append(live, a)
			}
		}
		active = live
	}
}
