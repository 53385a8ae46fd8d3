package rt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

// blobApp holds size bytes of state that every step rewrites in place; the
// rank named grower also appends size/16 bytes a step. Each step ends in an
// 8-byte Allreduce, so no rank runs more than a step ahead of another. The
// state is built on the first Step, so a restarted rank allocates it once,
// in Restore.
type blobApp struct {
	rank, grower int
	size, iters  int
	iter         int
	state        []byte
	x            []byte // named buffer "x": the Allreduce payload
}

func newBlobApp(rank, grower, size, iters int) *blobApp {
	return &blobApp{rank: rank, grower: grower, size: size, iters: iters, x: make([]byte, 8)}
}

func (a *blobApp) Name() string            { return "blob-test" }
func (a *blobApp) Setup(*Env) error        { return nil }
func (a *blobApp) Buffer(id string) []byte { return a.x }

func (a *blobApp) ensure() {
	if a.state == nil {
		a.state = make([]byte, a.size)
		for i := range a.state {
			a.state[i] = byte(i>>12 + a.rank)
		}
	}
}

func (a *blobApp) Step(env *Env) (bool, error) {
	a.ensure()
	if a.rank == a.grower {
		a.state = append(a.state, make([]byte, a.size/16)...)
	}
	for i := a.iter % 64; i < len(a.state); i += 4093 {
		a.state[i] += byte(a.iter + 1)
	}
	a.iter++
	binary.LittleEndian.PutUint64(a.x, uint64(a.iter))
	env.Allreduce(WorldVID, mpi.OpSum, "x")
	return a.iter < a.iters, nil
}

func (a *blobApp) SnapshotTo(w io.Writer) error {
	a.ensure()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(a.iter))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(a.state)
	return err
}

func (a *blobApp) Restore(data []byte) error {
	if len(data) < 8 || (a.rank != a.grower && len(data) != 8+a.size) {
		return fmt.Errorf("blob: %d-byte snapshot for a %d-byte state", len(data), a.size)
	}
	a.iter = int(binary.LittleEndian.Uint64(data))
	a.state = bytes.Clone(data[8:])
	return nil
}

// TestRestartCapturesIntoRestoredBytes: a restarted rank's first capture
// writes its snapshot into the bytes the rank was restored from, so the leg
// allocates no capture buffer. A rank whose state outgrew the loader's
// headroom captures into a fresh buffer instead, and every rank's captured
// bytes are its snapshot either way. Finishing from that capture reproduces
// the uninterrupted run's digest.
func TestRestartCapturesIntoRestoredBytes(t *testing.T) {
	const ranks, size, iters, grower = 4, 64 << 10, 12, 1
	factory := func(rank int) App { return newBlobApp(rank, grower, size, iters) }
	golden, err := Run(testConfig(ranks, AlgoCC), factory)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(ranks, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtStep: 3, Mode: ckpt.ExitAfterCapture}
	first, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if first.Completed || first.Checkpoint == nil {
		t.Fatal("the first leg did not checkpoint and exit")
	}
	img, err := ckpt.LoadJobImage(first.Store, first.Checkpoint.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	restored := make([][]byte, ranks)
	for r := range restored {
		restored[r] = img.Images[r].App
	}

	apps := make([]*blobApp, ranks)
	second, err := Restart(cfg, img, func(rank int) App {
		apps[rank] = newBlobApp(rank, grower, size, iters)
		return apps[rank]
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Completed || second.Image == nil {
		t.Fatal("the restarted leg did not checkpoint and exit")
	}
	for r, ri := range second.Image.Images {
		want, err := snapshot(apps[r])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ri.App, want) {
			t.Fatalf("rank %d: captured %d bytes that are not its %d-byte snapshot", r, len(ri.App), len(want))
		}
		shared := &ri.App[0] == &restored[r][0]
		switch {
		case r != grower && !shared:
			t.Errorf("rank %d: captured into a fresh buffer, not the %d bytes (capacity %d) it was restored from",
				r, len(restored[r]), cap(restored[r]))
		case r == grower && len(ri.App) <= cap(restored[r]):
			t.Fatalf("rank %d: state of %d bytes did not outgrow the restored capacity %d", r, len(ri.App), cap(restored[r]))
		case r == grower && shared:
			t.Errorf("rank %d: a state that outgrew its restored bytes was captured into them", r)
		}
	}

	final, err := Restart(testConfig(ranks, AlgoCC), second.Image, factory)
	if err != nil {
		t.Fatal(err)
	}
	if final.StateDigest != golden.StateDigest {
		t.Fatalf("restart from the reused capture: digest %.16s, uninterrupted %.16s", final.StateDigest, golden.StateDigest)
	}
}
