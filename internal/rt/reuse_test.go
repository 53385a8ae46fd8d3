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

// keepApp is the straggler's shape in miniature: its state is its snapshot
// layout — the iteration as 8 bytes, then size bytes that every step
// rewrites in place — which Restore keeps and SnapshotTo hands back in one
// Write. Each step ends in an 8-byte Allreduce, like blobApp's.
type keepApp struct {
	size, iters int
	buf         []byte
	x           []byte // named buffer "x": the Allreduce payload
}

func (a *keepApp) Name() string            { return "keep-test" }
func (a *keepApp) Setup(*Env) error        { return nil }
func (a *keepApp) Buffer(id string) []byte { return a.x }
func (a *keepApp) iter() int               { return int(binary.LittleEndian.Uint64(a.buf)) }

func (a *keepApp) ensure() {
	if a.buf == nil {
		a.buf = make([]byte, 8+a.size)
	}
}

func (a *keepApp) Step(env *Env) (bool, error) {
	a.ensure()
	iter := a.iter()
	for i := 8 + iter%64; i < len(a.buf); i += 4093 {
		a.buf[i] += byte(iter + 1)
	}
	binary.LittleEndian.PutUint64(a.buf, uint64(iter+1))
	binary.LittleEndian.PutUint64(a.x, uint64(iter+1))
	env.Allreduce(WorldVID, mpi.OpSum, "x")
	return iter+1 < a.iters, nil
}

func (a *keepApp) SnapshotTo(w io.Writer) error {
	a.ensure()
	_, err := w.Write(a.buf)
	return err
}

func (a *keepApp) Restore(data []byte) error {
	if len(data) != 8+a.size {
		return fmt.Errorf("keep: %d-byte snapshot for a %d-byte state", len(data), a.size)
	}
	a.buf = data
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

// endKeepApp is keepApp keeping its restored bytes by their other end:
// Restore moves them to the end of data's capacity and keeps that run as its
// state, so its snapshot's one Write ends at the capacity's last byte and,
// with the loader's headroom, does not start at data's first — the
// straggler's state once its snapshot closes the hole toward the front.
type endKeepApp struct{ keepApp }

func (a *endKeepApp) Restore(data []byte) error {
	if err := a.keepApp.Restore(data); err != nil {
		return err
	}
	full := data[:cap(data)]
	a.buf = full[len(full)-len(data):]
	copy(a.buf, data)
	return nil
}

// TestRestartKeepsBytesByTheirEnd: an app that keeps its restored bytes may
// hand back as its one Write a run of them that ends at their capacity's
// last byte. The capture counts that as kept: a continuing capture copies
// it into fresh memory — into the restored bytes it would overwrite the
// rank's live state — so the captured bytes still hash to their sealed
// sums and the rank runs on to the uninterrupted run's digest; a capture
// that ends the job keeps it as the image, without a copy.
func TestRestartKeepsBytesByTheirEnd(t *testing.T) {
	const ranks, size, iters = 2, 64 << 10, 8
	factory := func(int) App { return &endKeepApp{keepApp{size: size, iters: iters, x: make([]byte, 8)}} }
	golden, err := Run(testConfig(ranks, AlgoCC), factory)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ranks, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtStep: 2, Mode: ckpt.ExitAfterCapture}
	first, err := Run(cfg, factory)
	if err != nil || first.Completed || first.Checkpoint == nil {
		t.Fatalf("the first leg did not checkpoint and exit (err %v)", err)
	}
	for _, mode := range []ckpt.Mode{ckpt.ContinueAfterCapture, ckpt.ExitAfterCapture} {
		exit := mode == ckpt.ExitAfterCapture
		img, err := ckpt.LoadJobImage(first.Store, first.Checkpoint.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		restored := make([][]byte, ranks)
		for r := range restored {
			restored[r] = img.Images[r].App
		}
		apps := make([]*endKeepApp, ranks)
		leg := testConfig(ranks, AlgoCC)
		leg.Checkpoint = &CkptPlan{AtStep: 2, Mode: mode}
		rep, err := Restart(leg, img, func(rank int) App {
			apps[rank] = factory(rank).(*endKeepApp)
			return apps[rank]
		})
		if err != nil || rep.Completed == exit || rep.Image == nil {
			t.Fatalf("exit %v: the restarted leg did not capture and run on as planned (err %v)", exit, err)
		}
		man, err := rep.Store.GetManifest(rep.Checkpoint.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		sums, err := ckpt.HashCapture(rep.Image)
		if err != nil {
			t.Fatal(err)
		}
		for r, ri := range rep.Image.Images {
			full := restored[r][:cap(restored[r])]
			if live := apps[r].buf; &live[len(live)-1] != &full[len(full)-1] || &live[0] == &full[0] {
				t.Fatalf("exit %v/rank%d: the app does not keep its restored bytes by their end alone", exit, r)
			}
			if kept := &ri.App[0] == &apps[r].buf[0]; kept != exit {
				t.Errorf("exit %v/rank%d: the image is the rank's live bytes: %v, want %v", exit, r, kept, exit)
			}
			if !exit && &ri.App[0] == &full[0] {
				t.Errorf("rank%d: the continuing capture copied into the bytes the rank keeps", r)
			}
			if sums.Sums[r] != man.Shards[r].RawSum {
				t.Errorf("exit %v/rank%d: the captured bytes changed after their epoch sealed them", exit, r)
			}
		}
		if !exit && rep.StateDigest != golden.StateDigest {
			t.Errorf("a leg that continued past its capture: digest %.16s, uninterrupted %.16s", rep.StateDigest, golden.StateDigest)
		}
	}
}
