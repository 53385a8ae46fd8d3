package ckpt

import (
	"testing"
	"testing/quick"

	"mana/internal/mpi"
	"mana/internal/netmodel"
)

func TestParkKindStrings(t *testing.T) {
	for k, want := range map[ParkKind]string{
		ParkNone: "none", ParkPreCollective: "pre-collective",
		ParkInBarrier: "in-barrier", ParkInWait: "in-wait",
		ParkBoundary: "boundary", ParkDone: "done",
	} {
		if k.String() != want {
			t.Errorf("%d: got %q want %q", k, k.String(), want)
		}
	}
	if ParkKind(99).String() != "unknown" {
		t.Error("out of range kind")
	}
}

func TestJobImageEncodeDecode(t *testing.T) {
	ji := &JobImage{
		Algorithm: "cc", Ranks: 2, PPN: 2, CaptureVT: 1.25,
		Images: []RankImage{
			{
				Rank: 0,
				Desc: Descriptor{
					Kind: ParkPreCollective,
					Coll: &CollDesc{CommVID: 1, Kind: 3, Op: 0, Root: 2, InBufID: "x", OutBufID: "x"},
					Recvs: []RecvDesc{
						{CommVID: 0, Src: 1, Tag: 7, BufID: "halo", Off: 8, Len: 16},
					},
				},
				Proto:   []byte{1, 2, 3},
				App:     []byte{4, 5},
				ClockVT: 1.2,
				Inflight: []mpi.InflightSnapshot{
					{CommID: 1, SrcComm: 1, Tag: 7, Data: []byte("msg")},
				},
			},
			{Rank: 1, Desc: Descriptor{Kind: ParkDone}},
		},
	}
	store, _ := commitTestImage(t, ji)
	back, err := LoadJobImage(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "cc" || back.Ranks != 2 || back.CaptureVT != 1.25 {
		t.Fatalf("header mismatch: %+v", back)
	}
	d := back.Images[0].Desc
	if d.Kind != ParkPreCollective || d.Coll == nil || d.Coll.Root != 2 {
		t.Fatalf("descriptor mismatch: %+v", d)
	}
	if len(d.Recvs) != 1 || d.Recvs[0].BufID != "halo" || d.Recvs[0].Len != 16 {
		t.Fatalf("recv desc mismatch: %+v", d.Recvs)
	}
	if string(back.Images[0].Inflight[0].Data) != "msg" {
		t.Fatal("inflight payload lost")
	}
	if back.Images[1].Desc.Kind != ParkDone {
		t.Fatal("done rank lost")
	}
}

func TestImageBytesAndPadding(t *testing.T) {
	ji := &JobImage{
		Ranks: 2,
		Images: []RankImage{
			{Proto: make([]byte, 10), App: make([]byte, 100),
				Inflight: []mpi.InflightSnapshot{{Data: make([]byte, 5)}}},
			{App: make([]byte, 50)},
		},
	}
	if got := ji.TotalBytes(); got != 165 {
		t.Fatalf("TotalBytes = %d, want 165", got)
	}
	ji.PaddedBytesPerRank = 1000
	if got := ji.TotalBytes(); got != 2000 {
		t.Fatalf("padded TotalBytes = %d, want 2000", got)
	}
}

// Property: image sizes are monotone in payload sizes.
func TestPropertyImageBytesMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		mk := func(n int) *JobImage {
			return &JobImage{Ranks: 1, Images: []RankImage{{App: make([]byte, n)}}}
		}
		return mk(int(a)+int(b)).TotalBytes() >= mk(int(a)).TotalBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNativeAlgorithm(t *testing.T) {
	w := mpi.NewWorld(2, netmodel.New(netmodel.PerlmutterLike(), 2))
	n := NewNative()
	if n.Name() != "native" {
		t.Fatal("native metadata wrong")
	}
	if err := n.VerifySafeState(); err != nil {
		t.Fatal(err)
	}
	if n.Quiesced() {
		t.Fatal("native never quiesces")
	}
	p := n.NewRank(w.Proc(0), w.WorldComm(0))
	ran := false
	p.Collective(nil, nil, func() { ran = true })
	if !ran {
		t.Fatal("native collective did not execute")
	}
	if b, err := p.Snapshot(); err != nil || b != nil {
		t.Fatal("native snapshot should be empty")
	}
	if err := p.Restore(nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("native checkpoint request must panic")
		}
	}()
	n.OnCheckpointRequest()
}

func TestCoordinatorParkLifecycle(t *testing.T) {
	w := mpi.NewWorld(1, netmodel.New(netmodel.PerlmutterLike(), 1))
	c, _ := NewCoordinator(w, nil) // no plan: cannot fail
	c.SetAlgorithm(NewNative())
	// No pending checkpoint: ParkUntil is a no-op.
	out := c.ParkUntil(0, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay })
	if out != Proceed {
		t.Fatalf("park without pending returned %v", out)
	}
	if c.Pending() || c.Terminated() {
		t.Fatal("fresh coordinator in wrong state")
	}
	if img, _, _ := c.Result(); img != nil {
		t.Fatal("image before any checkpoint")
	}
}

func TestCheckpointStatsArithmetic(t *testing.T) {
	s := CheckpointStats{RequestVT: 1.0, CaptureVT: 1.5, DrainVT: 0.5}
	if s.CaptureVT-s.RequestVT != s.DrainVT {
		t.Fatal("drain arithmetic inconsistent")
	}
}
