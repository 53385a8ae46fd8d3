package ckpt

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// stubAlgo is a minimal Algorithm for exercising the coordinator state
// machine directly.
type stubAlgo struct {
	mu        sync.Mutex
	quiesced  bool
	verifyErr error
	requested int
}

func (s *stubAlgo) Name() string                              { return "stub" }
func (s *stubAlgo) NewRank(p *mpi.Proc, w *mpi.Comm) Protocol { return nativeRank{} }
func (s *stubAlgo) OnCheckpointRequest() {
	s.mu.Lock()
	s.requested++
	s.mu.Unlock()
}
func (s *stubAlgo) Quiesced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quiesced
}
func (s *stubAlgo) VerifySafeState() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyErr
}

func newStubCoordinator(t testing.TB, n int, plan Plan) (*Coordinator, *stubAlgo, *mpi.World) {
	t.Helper()
	w := mpi.NewWorld(n, netmodel.New(netmodel.PerlmutterLike(), n))
	c, err := NewCoordinator(w, &plan)
	if err != nil {
		t.Fatal(err)
	}
	a := &stubAlgo{quiesced: true}
	c.SetAlgorithm(a)
	for r := 0; r < n; r++ {
		rank := r
		c.RegisterRank(r, RankHooks{
			AppSnapshotTo: func(w io.Writer) error {
				_, err := w.Write([]byte{byte(rank)})
				return err
			},
			ProtoSnapshot: func() ([]byte, error) { return nil, nil },
			ClockVT:       func() float64 { return float64(rank) },
			SetClock:      func(vt float64) {},
			PendingRecvs:  func() []RecvDesc { return nil },
		})
	}
	return c, a, w
}

func TestCoordinatorCaptureRelease(t *testing.T) {
	const n = 3
	c, _, _ := newStubCoordinator(t, n, Plan{})
	if !c.RequestCheckpoint(1.0) {
		t.Fatal("request rejected")
	}
	if c.RequestCheckpoint(2.0) {
		t.Fatal("double request accepted")
	}
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			outcomes[rank] = c.ParkUntil(rank, &Descriptor{Kind: ParkBoundary},
				func() Decision { return Stay })
		}(r)
	}
	wg.Wait()
	for r, o := range outcomes {
		if o != Released {
			t.Fatalf("rank %d outcome %v, want Released", r, o)
		}
	}
	img, stats, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if img == nil || img.Ranks != n {
		t.Fatal("no image captured")
	}
	if stats.CaptureVT != float64(n-1) {
		t.Fatalf("capture VT %g, want max rank clock %d", stats.CaptureVT, n-1)
	}
	if img.Images[1].App[0] != 1 {
		t.Fatal("per-rank snapshots misrouted")
	}
	// Continue mode returns the coordinator to idle: a second checkpoint
	// must be acceptable.
	if !c.RequestCheckpoint(5.0) {
		t.Fatal("chained request rejected after release")
	}
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c.ParkUntil(rank, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay })
		}(r)
	}
	wg.Wait()
	if len(c.History()) != 2 {
		t.Fatalf("history has %d entries, want 2", len(c.History()))
	}
}

func TestCoordinatorTerminate(t *testing.T) {
	const n = 2
	c, _, _ := newStubCoordinator(t, n, Plan{Mode: ExitAfterCapture})
	c.RequestCheckpoint(0)
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			outcomes[rank] = c.ParkUntil(rank, &Descriptor{Kind: ParkBoundary},
				func() Decision { return Stay })
		}(r)
	}
	wg.Wait()
	for r, o := range outcomes {
		if o != Terminated {
			t.Fatalf("rank %d outcome %v, want Terminated", r, o)
		}
	}
	if !c.Terminated() {
		t.Fatal("coordinator not terminated")
	}
}

func TestCoordinatorUnparkOnResume(t *testing.T) {
	c, _, _ := newStubCoordinator(t, 2, Plan{})
	c.RequestCheckpoint(0)
	// Rank 0 parks but its decide resumes when poked with work available.
	work := false
	var mu sync.Mutex
	done := make(chan Outcome, 1)
	go func() {
		done <- c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, func() Decision {
			mu.Lock()
			defer mu.Unlock()
			if work {
				return Resume
			}
			return Stay
		})
	}()
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	work = true
	mu.Unlock()
	c.Poke()
	if o := <-done; o != Proceed {
		t.Fatalf("outcome %v, want Proceed (unparked for new work)", o)
	}
}

func TestCoordinatorQuiesceGatesCapture(t *testing.T) {
	c, a, _ := newStubCoordinator(t, 1, Plan{})
	a.mu.Lock()
	a.quiesced = false
	a.mu.Unlock()
	c.RequestCheckpoint(0)
	captured := make(chan Outcome, 1)
	go func() {
		captured <- c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay })
	}()
	select {
	case <-captured:
		t.Fatal("capture happened while the algorithm was not quiesced")
	case <-time.After(30 * time.Millisecond):
	}
	a.mu.Lock()
	a.quiesced = true
	a.mu.Unlock()
	c.Poke()
	if o := <-captured; o != Released {
		t.Fatalf("outcome %v", o)
	}
}

// TestCoordinatorQuiescedWhileParkedCaptures: a parked rank's decide can
// consume the last in-flight protocol state (CC absorbing a target update)
// and stay parked. That decide completes the safe state, so the rank
// captures on the spot, under the lock decide ran under: no other goroutine
// has to be woken to see the state. (When a separate goroutine captured,
// its wakeup here was lost about two times in three and the job hung until
// the deadlock watchdog fired.)
func TestCoordinatorQuiescedWhileParkedCaptures(t *testing.T) {
	for i := 0; i < 20; i++ {
		c, a, _ := newStubCoordinator(t, 1, Plan{})
		a.mu.Lock()
		a.quiesced = false
		a.mu.Unlock()
		c.RequestCheckpoint(0)
		calls := 0 // decide runs under the coordinator lock
		decided := make(chan struct{}, 1)
		done := make(chan Outcome, 1)
		go func() {
			done <- c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, func() Decision {
				if calls++; calls == 1 {
					decided <- struct{}{}
				} else {
					a.mu.Lock()
					a.quiesced = true
					a.mu.Unlock()
				}
				return Stay
			})
		}()
		// Poke once the rank has run decide: the rank holds the coordinator
		// lock from decide until its Wait releases it, so the Poke, which
		// takes the lock, lands while the rank waits. (A sleep alone let a
		// loaded host park the rank after the Poke, and nothing then ran
		// decide a second time.) The sleep lets the rank settle into its
		// Wait before the Poke arrives.
		<-decided
		time.Sleep(2 * time.Millisecond)
		c.Poke() // the rank re-runs decide, which completes the safe state
		select {
		case o := <-done:
			if o != Released {
				t.Fatalf("iteration %d: outcome %v, want Released", i, o)
			}
		case <-time.After(time.Second):
			c.Poke() // let the rank re-run decide so the goroutine ends
			<-done
			t.Fatalf("iteration %d: the safe state was reached in decide and never captured", i)
		}
	}
}

// goroutineHeader is the calling goroutine's runtime.Stack header,
// "goroutine N".
func goroutineHeader() string {
	buf := make([]byte, 64)
	h, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), " [")
	return h
}

// TestCaptureRunsOnCompletingGoroutine: the goroutine whose transition
// completes the safe state captures, so the snapshot hooks run on it — a
// rank that parks, a parked rank whose decide consumes the last in-flight
// protocol state after a Poke, a rank that finishes, and a request raised
// after every rank has finished, which has captured by the time
// RequestCheckpoint returns. (One rank: the capture fan-out then snapshots
// on the capturing goroutine itself.)
func TestCaptureRunsOnCompletingGoroutine(t *testing.T) {
	stay := func() Decision { return Stay }
	for _, tc := range []struct {
		name string
		// complete makes the transition on the calling goroutine; before
		// runs on the test's goroutine first.
		before, complete func(t *testing.T, c *Coordinator, a *stubAlgo)
	}{
		{name: "park",
			before: func(t *testing.T, c *Coordinator, a *stubAlgo) { c.RequestCheckpoint(0) },
			complete: func(t *testing.T, c *Coordinator, a *stubAlgo) {
				if o := c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, stay); o != Released {
					t.Errorf("outcome %v, want Released", o)
				}
			}},
		{name: "decide",
			before: func(t *testing.T, c *Coordinator, a *stubAlgo) {
				a.mu.Lock()
				a.quiesced = false
				a.mu.Unlock()
				c.RequestCheckpoint(0)
			},
			complete: func(t *testing.T, c *Coordinator, a *stubAlgo) {
				calls := 0 // decide runs under the coordinator lock
				poked := make(chan struct{})
				go func() {
					<-poked
					c.Poke() // lands while the rank waits: Poke takes the lock
					close(poked)
				}()
				o := c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, func() Decision {
					if calls++; calls == 1 {
						poked <- struct{}{}
					} else {
						a.mu.Lock()
						a.quiesced = true
						a.mu.Unlock()
					}
					return Stay
				})
				if o != Released {
					t.Errorf("outcome %v, want Released", o)
				}
				<-poked
			}},
		{name: "finish",
			before: func(t *testing.T, c *Coordinator, a *stubAlgo) { c.RequestCheckpoint(0) },
			complete: func(t *testing.T, c *Coordinator, a *stubAlgo) {
				c.FinishRank(0)
			}},
		{name: "request-after-finish",
			before: func(t *testing.T, c *Coordinator, a *stubAlgo) { c.FinishRank(0) },
			complete: func(t *testing.T, c *Coordinator, a *stubAlgo) {
				if !c.RequestCheckpoint(0) {
					t.Error("request rejected")
				}
				c.mu.Lock()
				defer c.mu.Unlock()
				if len(c.history) != 1 || c.image == nil {
					t.Errorf("RequestCheckpoint returned with %d captures, want 1", len(c.history))
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, a, _ := newStubCoordinator(t, 1, Plan{})
			var snapshotOn string // written under the coordinator lock
			c.hooks[0].AppSnapshotTo = func(w io.Writer) error {
				snapshotOn = goroutineHeader()
				_, err := w.Write([]byte{0})
				return err
			}
			tc.before(t, c, a)
			completer := make(chan string)
			go func() {
				h := goroutineHeader()
				tc.complete(t, c, a)
				completer <- h
			}()
			h := <-completer
			if _, _, err := c.Result(); err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if snapshotOn != h {
				t.Fatalf("snapshot taken on %q, not on %q, whose %s completed the safe state", snapshotOn, h, tc.name)
			}
		})
	}
}

// gatedStore holds the first PutManifest until gate closes, so a test can act
// while a commit is sealing.
type gatedStore struct {
	Store
	sealing chan struct{} // closed when the first PutManifest starts
	gate    chan struct{}
	once    sync.Once
}

func (s *gatedStore) PutManifest(epoch int, man *Manifest) error {
	s.once.Do(func() { close(s.sealing) })
	<-s.gate
	return s.Store.PutManifest(epoch, man)
}

// TestParkedRanksHeldThroughSyncCommit: once the image is taken, a parked
// rank stays parked until the release, even while a synchronous commit runs
// and the rank's protocol would now resume it. A rank that left then ran on
// past its captured state (under ExitAfterCapture, into a collective its
// terminated peers never joined).
func TestParkedRanksHeldThroughSyncCommit(t *testing.T) {
	store := &gatedStore{Store: NewMemStore(), sealing: make(chan struct{}), gate: make(chan struct{})}
	c, _, _ := newStubCoordinator(t, 2, Plan{Store: store})
	c.RequestCheckpoint(0)
	var resume atomic.Bool
	out := make(chan Outcome, 2)
	for r := 0; r < 2; r++ {
		go func(rank int) {
			out <- c.ParkUntil(rank, &Descriptor{Kind: ParkBoundary}, func() Decision {
				if resume.Load() {
					return Resume
				}
				return Stay
			})
		}(r)
	}
	<-store.sealing
	resume.Store(true)
	// Poke takes the coordinator lock, which the sealing commit holds: it
	// wakes the parked ranks as soon as anything lets them run.
	go c.Poke()
	select {
	case o := <-out:
		close(store.gate)
		t.Fatalf("a parked rank left with outcome %v while its capture was committing", o)
	case <-time.After(20 * time.Millisecond):
	}
	close(store.gate)
	for r := 0; r < 2; r++ {
		if o := <-out; o != Released {
			t.Fatalf("outcome %v, want Released", o)
		}
	}
}

// TestResultIsNewestHistory: Result's stats are History's newest entry,
// field for field with the commit's promoted fields, and Result returns
// only once that capture's commit has applied its outcome — after a failed
// capture, a synchronous one, and an Async chain whose last commit seals
// after the job was released.
func TestResultIsNewestHistory(t *testing.T) {
	const n = 3
	type result struct {
		st  CheckpointStats
		err error
	}
	newest := func(t *testing.T, c *Coordinator, r result, wantEpoch int, wantErr bool) {
		t.Helper()
		if (r.err != nil) != wantErr {
			t.Fatalf("Result error %v, want an error: %v", r.err, wantErr)
		}
		hist := c.History()
		if len(hist) == 0 || r.st != hist[len(hist)-1] {
			t.Fatalf("Result's stats %+v are not History's newest entry %+v", r.st, hist)
		}
		if r.st.Epoch != wantEpoch {
			t.Fatalf("newest capture is epoch %d, want %d", r.st.Epoch, wantEpoch)
		}
	}
	resultOf := func(c *Coordinator) result {
		_, st, err := c.Result()
		return result{st, err}
	}

	t.Run("failed", func(t *testing.T) {
		c, a, _ := newStubCoordinator(t, n, Plan{})
		a.mu.Lock()
		a.verifyErr = errors.New("boom")
		a.mu.Unlock()
		captureNow(t, c, 1)
		r := resultOf(c)
		newest(t, c, r, -1, true)
		if r.st.FreshShards != 0 || r.st.WriteVT != 0 {
			t.Fatalf("a failed capture was committed: %+v", r.st)
		}
	})

	t.Run("sync", func(t *testing.T) {
		c, _, _ := newStubCoordinator(t, n, Plan{})
		captureNow(t, c, 1)
		r := resultOf(c)
		newest(t, c, r, 0, false)
		if r.st.FreshShards != n || r.st.WriteVT <= 0 || r.st.StallVT != r.st.WriteVT {
			t.Fatalf("sync capture's commit not applied: %+v", r.st)
		}
	})

	t.Run("async-chain", func(t *testing.T) {
		store := &gatedStore{Store: NewMemStore(), sealing: make(chan struct{}), gate: make(chan struct{})}
		c, _, _ := newStubCoordinator(t, n, Plan{Store: store, Async: true})
		for k := 0; k < 3; k++ {
			captureNow(t, c, float64(k+1)) // released; no commit has sealed
		}
		<-store.sealing
		got := make(chan result, 1)
		go func() { got <- resultOf(c) }()
		select {
		case r := <-got:
			close(store.gate)
			t.Fatalf("Result returned %+v while the chain's commits were still sealing", r.st)
		case <-time.After(20 * time.Millisecond):
		}
		close(store.gate)
		r := <-got
		newest(t, c, r, 2, false)
		if r.st.FreshShards != n || r.st.OverlapVT <= 0 || r.st.PeakEncodeBytes <= 0 {
			t.Fatalf("last commit's outcome not applied: %+v", r.st)
		}
	})
}

func TestCoordinatorVerifyFailureSurfaces(t *testing.T) {
	c, a, _ := newStubCoordinator(t, 1, Plan{})
	a.mu.Lock()
	a.verifyErr = errors.New("boom")
	a.mu.Unlock()
	c.RequestCheckpoint(0)
	c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay })
	if _, _, err := c.Result(); err == nil {
		t.Fatal("safe-state violation not surfaced")
	}
}

func TestCoordinatorDoneRanksCountAsParked(t *testing.T) {
	c, _, _ := newStubCoordinator(t, 2, Plan{})
	c.FinishRank(1) // rank 1 finished before the request
	c.RequestCheckpoint(0)
	o := c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay })
	if o != Released {
		t.Fatalf("outcome %v", o)
	}
	img, _, _ := c.Result()
	if img.Images[1].Desc.Kind != ParkDone {
		t.Fatalf("finished rank recorded as %v", img.Images[1].Desc.Kind)
	}
}

// TestCaptureBufferAllocatedOnce: a rank whose state, handed over in 64 KiB
// pieces, grew by a percent past the bytes it was restored from — so the
// first capture cannot write into them — and again by a percent before the
// next capture is captured each time into one buffer allocated once: the
// capture lays the pieces out when it knows their total. A buffer grown by
// doubling as the pieces arrive allocates about 2-3x the state.
// TestExitCaptureAllocs: a capture that ends the job keeps a one-Write
// snapshot as the rank's image, so capturing a rank whose SnapshotTo lays
// its state out in one exact-size allocation and one Write — as the VASP
// proxy's and rt.Buffers' do, 1 072 B for a registered vasp_coll rank —
// allocates that layout and nothing more. Any other capture copies it once,
// into one more exact-size allocation. (A capture into a bytes.Buffer
// allocated 3 times either way: the layout, the buffer and its header.)
func TestExitCaptureAllocs(t *testing.T) {
	skipUnderRace(t)
	const n = 1072
	for _, c := range []struct {
		mode Mode
		want float64
	}{{ExitAfterCapture, 1}, {ContinueAfterCapture, 2}} {
		co, _, _ := newStubCoordinator(t, 1, Plan{Mode: c.mode})
		co.hooks[0].AppSnapshotTo = func(w io.Writer) error {
			_, err := w.Write(make([]byte, n))
			return err
		}
		img := &JobImage{Images: make([]RankImage, 1)}
		allocs := testing.AllocsPerRun(100, func() {
			if err := co.captureRank(0, img); err != nil {
				t.Fatal(err)
			}
		})
		if len(img.Images[0].App) != n {
			t.Fatalf("mode %d: captured %d bytes of a %d-byte snapshot", c.mode, len(img.Images[0].App), n)
		}
		if allocs != c.want {
			t.Errorf("mode %d: a capture allocates %v times, want %v", c.mode, allocs, c.want)
		}
	}
}

func TestCaptureBufferAllocatedOnce(t *testing.T) {
	const grown = 8 << 20
	block := make([]byte, 64<<10)
	state := grown * 100 / 101 // what the rank was restored from
	c, _, _ := newStubCoordinator(t, 1, Plan{})
	c.RegisterRank(0, RankHooks{
		AppSnapshotTo: func(w io.Writer) error {
			for left := state; left > 0; left -= min(left, len(block)) {
				if _, err := w.Write(block[:min(left, len(block))]); err != nil {
					return err
				}
			}
			return nil
		},
		ProtoSnapshot: func() ([]byte, error) { return nil, nil },
		ClockVT:       func() float64 { return 0 },
		Restored:      make([]byte, state),
	})
	for capture := 0; capture < 2; capture++ {
		state = state * 101 / 100 // one percent more than last known
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.RequestCheckpoint(float64(capture))
		if o := c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay }); o != Released {
			t.Fatalf("capture %d: outcome %v", capture, o)
		}
		img, _, err := c.Result()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(img.Images[0].App) != state {
			t.Fatalf("capture %d: captured %d bytes of a %d-byte state", capture, len(img.Images[0].App), state)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(state)*5/4 {
			t.Fatalf("capture %d: allocated %d bytes for a %d-byte state (%.2fx, want <= 1.25x: the buffer regrew)",
				capture, alloc, state, float64(alloc)/float64(state))
		}
	}
}
