package ckpt

import (
	"errors"
	"io"
	"runtime"
	"sync"
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
func (s *stubAlgo) SupportsNonblocking() bool                 { return true }
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
// and stay parked. The capture watcher, which checked the safe state before
// that decide ran, must still be woken to capture. Without the broadcast
// after decide, the wakeup was lost about two times in three and the job
// hung until the deadlock watchdog fired.
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
		// decide a second time.) The sleep gives the capture watcher time
		// to start and wait too, the interleaving this test is for.
		<-decided
		time.Sleep(2 * time.Millisecond)
		c.Poke() // wakes the watcher and the rank; either may run first
		select {
		case o := <-done:
			if o != Released {
				t.Fatalf("iteration %d: outcome %v, want Released", i, o)
			}
		case <-time.After(time.Second):
			c.Poke() // let the stranded watcher capture so the goroutines end
			<-done
			t.Fatalf("iteration %d: the safe state was reached in decide and never captured", i)
		}
	}
}

// gatedStore holds the first PutManifest until gate closes, so a test can act
// while a synchronous commit runs with the coordinator lock dropped.
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
// with the coordinator lock dropped and the rank's protocol would now resume
// it. A rank that left then ran on past its captured state (under
// ExitAfterCapture, into a collective its terminated peers never joined).
func TestParkedRanksHeldThroughSyncCommit(t *testing.T) {
	store := &gatedStore{Store: NewMemStore(), sealing: make(chan struct{}), gate: make(chan struct{})}
	c, _, _ := newStubCoordinator(t, 2, Plan{Store: store})
	c.RequestCheckpoint(0)
	resume := false // read and written under the coordinator lock, in decide
	out := make(chan Outcome, 2)
	for r := 0; r < 2; r++ {
		go func(rank int) {
			out <- c.ParkUntil(rank, &Descriptor{Kind: ParkBoundary}, func() Decision {
				if resume {
					return Resume
				}
				return Stay
			})
		}(r)
	}
	<-store.sealing
	c.mu.Lock()
	resume = true
	c.mu.Unlock()
	c.Poke() // the parked ranks wake while the commit is still sealing
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
