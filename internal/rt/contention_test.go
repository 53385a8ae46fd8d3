package rt

import (
	"math"
	"sync"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/netmodel"
)

// contentionPlan builds the per-job checkpoint plan the contention tests
// share: periodic async incremental captures staged on the burst tier with
// the lifecycle policies (GC + compaction) active, all draining through one
// shared scheduler.
func contentionPlan(store ckpt.Store, sched *netmodel.DrainScheduler, job int) *CkptPlan {
	return &CkptPlan{
		AtStep: 2, Every: 1e-6, Mode: ckpt.ContinueAfterCapture,
		Store: store, Async: true, Incremental: true,
		KeepEpochs: 4, CompactEvery: 3,
		Tier:       netmodel.TierBurstBuffer,
		DrainSched: sched, JobID: job, DrainPriority: job % 2,
		FallbackWaitVT: math.MaxFloat64,
	}
}

// TestContentionRaceAccounting runs several goroutine-concurrent jobs that
// share one DrainScheduler, each with GC and compaction retiring epochs
// behind the captures, and asserts the per-job byte accounting partitions
// exactly: a solo job's scheduler meter is the write charge of the burst-tier
// manifests it sealed, under contention every job still stages something,
// and the per-job meters sum to the scheduler totals (no cross-job bleed).
// It is the designated -race workout for the scheduler's locking.
func TestContentionRaceAccounting(t *testing.T) {
	const (
		jobs       = 4
		ranks      = 8
		frostIters = 24
	)
	golden, err := Run(testConfig(ranks, AlgoCC), func(rank int) App { return newFrostApp(rank, frostIters) })
	if err != nil {
		t.Fatal(err)
	}

	// Solo probe: one job through a private scheduler pins the accounting
	// equality without contention and sizes the shared capacity below.
	// Retention is off, so every manifest it sealed — compactions included —
	// is still in the store to be priced.
	probeCfg := testConfig(ranks, AlgoCC)
	probeModel := netmodel.New(probeCfg.Params, probeCfg.PPN)
	probeSched := netmodel.NewDrainScheduler(probeModel, netmodel.DrainFIFO)
	probeStore := ckpt.NewMemStore()
	probeCfg.Checkpoint = contentionPlan(probeStore, probeSched, 0)
	probeCfg.Checkpoint.KeepEpochs = 0
	probeRep, err := Run(probeCfg, func(rank int) App { return newFrostApp(rank, frostIters) })
	if err != nil {
		t.Fatal(err)
	}
	if probeRep.StateDigest != golden.StateDigest {
		t.Fatal("solo scheduled job diverged from golden digest")
	}
	probe := probeSched.Stats()
	if probe.Requests == 0 || probe.Bytes <= 0 {
		t.Fatalf("probe job staged nothing: %+v", probe)
	}
	var sealedBytes int64
	sealed, err := probeStore.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sealed {
		man, err := probeStore.GetManifest(e)
		if err != nil {
			t.Fatal(err)
		}
		if man.Tier != int(netmodel.TierBurstBuffer) {
			t.Fatalf("probe epoch %d sealed on tier %d with an unbounded scheduler", e, man.Tier)
		}
		sealedBytes += ckpt.WriteBytesOf(man)
	}
	if sealedBytes != probe.Bytes || len(sealed) != probe.Requests {
		t.Fatalf("probe sealed %d burst epochs charging %d bytes, scheduler logged %d drains of %d bytes",
			len(sealed), sealedBytes, probe.Requests, probe.Bytes)
	}

	// Shared run: capacity bounded at one job's lifetime volume so the
	// 4-job backlog can exercise AdmitDelay/Backlog (queue charges and
	// fallbacks are allowed but not required — the assertions below hold
	// either way).
	m := netmodel.New(netmodel.PerlmutterLike(), 4)
	sched := netmodel.NewDrainScheduler(m, netmodel.DrainFairShare)
	sched.SetCapacity(probe.Bytes)

	var (
		wg   sync.WaitGroup
		reps [jobs]*Report
		errs [jobs]error
	)
	for j := 0; j < jobs; j++ {
		cfg := testConfig(ranks, AlgoCC)
		cfg.Checkpoint = contentionPlan(ckpt.NewMemStore(), sched, j)
		wg.Add(1)
		go func(j int, cfg Config) {
			defer wg.Done()
			reps[j], errs[j] = Run(cfg, func(rank int) App { return newFrostApp(rank, frostIters) })
		}(j, cfg)
	}
	wg.Wait()

	var sum netmodel.DrainJobStats
	for j := 0; j < jobs; j++ {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		if !reps[j].Completed {
			t.Fatalf("job %d did not complete", j)
		}
		if reps[j].StateDigest != golden.StateDigest {
			t.Fatalf("job %d diverged under contention", j)
		}
		js := sched.JobStats(j)
		if js.Requests == 0 || js.Bytes <= 0 {
			t.Fatalf("job %d staged nothing: %+v", j, js)
		}
		for _, e := range reps[j].CheckpointHistory {
			if e.DrainQueueVT < 0 || math.IsNaN(e.DrainQueueVT) {
				t.Fatalf("job %d epoch %d: bad DrainQueueVT %g", j, e.Epoch, e.DrainQueueVT)
			}
			if e.PFSFallback && e.Tier != netmodel.TierPFS {
				t.Fatalf("job %d epoch %d: fallback epoch not re-tiered to PFS", j, e.Epoch)
			}
		}
		sum.Requests += js.Requests
		sum.Bytes += js.Bytes
		sum.ServiceVT += js.ServiceVT
		sum.QueueVT += js.QueueVT
	}

	tot := sched.Stats()
	if sum.Requests != tot.Requests || sum.Bytes != tot.Bytes {
		t.Fatalf("per-job meters do not partition the totals: sum %+v, total %+v", sum, tot)
	}
	if tot.Requests != sched.Len() {
		t.Fatalf("scheduler served %d requests but logged %d", tot.Requests, sched.Len())
	}
	if math.Abs(sum.ServiceVT-tot.ServiceVT) > 1e-9*math.Max(1, tot.ServiceVT) {
		t.Fatalf("service time does not partition: sum %g, total %g", sum.ServiceVT, tot.ServiceVT)
	}
	if math.Abs(sum.QueueVT-tot.QueueVT) > 1e-9*math.Max(1, math.Abs(tot.QueueVT)) {
		t.Fatalf("queue time does not partition: sum %g, total %g", sum.QueueVT, tot.QueueVT)
	}
	for _, r := range sched.Drain() {
		if r.Job < 0 || r.Job >= jobs {
			t.Fatalf("request %d carries unknown job %d", r.ID, r.Job)
		}
	}
}

// TestContentionAdmissionDefers drives one job against a drain that outlives
// several checkpoint periods, with an admission budget that refuses captures
// while any backlog is outstanding. The runner must keep retrying at
// boundaries, admit the next capture once the drain completes, and attribute
// the refused attempts to that capture's AdmissionDeferred — all without
// perturbing the application state.
func TestContentionAdmissionDefers(t *testing.T) {
	const iters = 40
	_, base := runToCompletion(t, testConfig(8, AlgoCC), iters)

	p := netmodel.PerlmutterLike()
	// Rescale both storage tiers against the (microsecond-scale) app run:
	// captures must be cheap enough that Every sets the cadence, while a
	// PFS drain spans a few checkpoint periods instead of dwarfing the
	// whole run.
	p.StorageLatency = base.RuntimeVT / 3
	p.StorageStagger = 0
	p.BurstLatency = base.RuntimeVT / 1e3
	p.BurstStagger = 0
	cfg := testConfig(8, AlgoCC)
	cfg.Params = p
	m := netmodel.New(p, cfg.PPN)
	sched := netmodel.NewDrainScheduler(m, netmodel.DrainFIFO)
	// Synchronous captures: the epoch is sealed (and its drain enqueued)
	// before the job resumes, so the backlog each later trigger sees is
	// deterministic rather than racing the async commit goroutine.
	cfg.Checkpoint = &CkptPlan{
		AtVT: base.RuntimeVT / 8, Every: base.RuntimeVT / 8, Mode: ckpt.ContinueAfterCapture,
		Incremental: true, Tier: netmodel.TierBurstBuffer,
		DrainSched: sched, JobID: 7,
		FallbackWaitVT:    math.MaxFloat64,
		AdmitBacklogBytes: 1,
	}
	rep, err := Run(cfg, func(rank int) App { return newRingApp(iters) })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("run did not complete")
	}
	if rep.StateDigest != base.StateDigest {
		t.Fatal("admission control perturbed the application state")
	}
	hist := rep.CheckpointHistory
	if len(hist) < 2 {
		t.Fatalf("expected the job to be re-admitted after the drain, got %d captures", len(hist))
	}
	if hist[0].AdmissionDeferred != 0 {
		t.Fatalf("first capture reports %d deferrals before any backlog existed", hist[0].AdmissionDeferred)
	}
	deferred := 0
	for _, e := range hist {
		deferred += e.AdmissionDeferred
	}
	if deferred == 0 {
		t.Fatal("no capture was ever deferred despite a 1-byte admission budget")
	}
	// With no staging capacity bound the admission budget is the only
	// backpressure: nothing queues and nothing falls back.
	for _, e := range hist {
		if e.DrainQueueVT != 0 || e.PFSFallback {
			t.Fatalf("epoch %d: unexpected backpressure (queue %g, fallback %v)", e.Epoch, e.DrainQueueVT, e.PFSFallback)
		}
	}
	if got, want := sched.Len(), len(hist); got != want {
		t.Fatalf("scheduler logged %d drains for %d burst captures", got, want)
	}
}
