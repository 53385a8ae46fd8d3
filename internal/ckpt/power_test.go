package ckpt

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"testing"
)

// A power-loss model of the object layer, and the crash sweep over it.

var errPowerLost = errors.New("power lost")

// pnode is a file — its bytes, and those its last sync made durable — or a
// directory — its entries, and those as of its last sync.
type pnode struct {
	data, synced   []byte
	names, durable map[int]*pnode
}

func newPdir() *pnode { return &pnode{names: map[int]*pnode{}, durable: map[int]*pnode{}} }

// pchange is one directory change no sync has made durable yet: the names it
// binds at once (a nil node unbinds one). A rename is one change.
type pchange struct {
	dir   *pnode
	binds map[int]*pnode
}

// powerObjects is an object layer over a modeled disk whose power a test can
// cut. It keeps the objects interface's promises the way the file layer does,
// one primitive operation at a time:
//
//   - create makes the epoch's directory if it is missing, then binds the
//     object's name; the stream's Close syncs its bytes;
//   - publish syncs the epoch directory, then the root, renames, and syncs
//     the epoch directory again;
//   - remove reads the directory, unbinds each object in slot order, then
//     the directory, and syncs nothing;
//   - open and list read.
//
// A power loss keeps a file's bytes up to its last sync, and of each
// directory the entries as of its last sync plus any subset of the changes
// made since (afterPowerLoss picks the subset).
type powerObjects struct {
	mu      sync.Mutex
	root    *pnode    // epochs: directories of slots
	pending []pchange // every directory's unsynced changes, oldest first
	steps   int       // primitive operations started
	cutAt   int       // the step the power is cut at, which never happens; 0: never
	down    bool
}

func newPowerObjects() *powerObjects { return &powerObjects{root: newPdir()} }

// step starts one primitive operation, or finds the power gone. p.mu is held.
func (p *powerObjects) step() error {
	if !p.down {
		p.steps++
		p.down = p.steps == p.cutAt
	}
	if p.down {
		return errPowerLost
	}
	return nil
}

func (p *powerObjects) change(dir *pnode, binds map[int]*pnode) {
	for name, n := range binds {
		if n == nil {
			delete(dir.names, name)
		} else {
			dir.names[name] = n
		}
	}
	p.pending = append(p.pending, pchange{dir, binds})
}

// syncDir makes every change to dir so far durable, as fsync on a directory
// does.
func (p *powerObjects) syncDir(dir *pnode) {
	dir.durable = maps.Clone(dir.names)
	p.pending = slices.DeleteFunc(p.pending, func(c pchange) bool { return c.dir == dir })
}

func (p *powerObjects) create(k objKey) (io.WriteCloser, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.step(); err != nil {
		return nil, err
	}
	d := p.root.names[k.epoch]
	if d == nil {
		d = newPdir()
		p.change(p.root, map[int]*pnode{k.epoch: d})
	}
	if err := p.step(); err != nil {
		return nil, err
	}
	f := &pnode{}
	p.change(d, map[int]*pnode{k.slot: f})
	return &powerWriter{p, f}, nil
}

type powerWriter struct {
	p *powerObjects
	f *pnode
}

func (w *powerWriter) Write(b []byte) (int, error) {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	if w.p.down {
		return 0, errPowerLost
	}
	w.f.data = append(w.f.data, b...)
	return len(b), nil
}

func (w *powerWriter) Close() error {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	if err := w.p.step(); err != nil {
		return err
	}
	w.f.synced = slices.Clone(w.f.data)
	return nil
}

func (p *powerObjects) open(k objKey) (io.ReadCloser, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.step(); err != nil {
		return nil, err
	}
	d := p.root.names[k.epoch]
	if d == nil || d.names[k.slot] == nil {
		return nil, fs.ErrNotExist
	}
	r := &memReader{}
	r.Reset(d.names[k.slot].data)
	return r, nil
}

func (p *powerObjects) publish(epoch, from, to int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.root.names[epoch]
	for _, dir := range []*pnode{d, p.root} {
		if err := p.step(); err != nil {
			return err
		}
		if d == nil {
			return fs.ErrNotExist
		}
		p.syncDir(dir)
	}
	if err := p.step(); err != nil {
		return err
	}
	f := d.names[from]
	if f == nil {
		return fs.ErrNotExist
	}
	p.change(d, map[int]*pnode{to: f, from: nil})
	if err := p.step(); err != nil {
		return err
	}
	p.syncDir(d)
	return nil
}

func (p *powerObjects) remove(epoch int) (int64, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.step(); err != nil {
		return 0, 0, err
	}
	d := p.root.names[epoch]
	if d == nil {
		return 0, 0, nil
	}
	var bytes int64
	var objects int
	for _, slot := range sortedKeys(d.names) {
		if err := p.step(); err != nil {
			return bytes, objects, err
		}
		bytes += int64(len(d.names[slot].data))
		objects++
		p.change(d, map[int]*pnode{slot: nil})
	}
	if err := p.step(); err != nil {
		return bytes, objects, err
	}
	p.change(p.root, map[int]*pnode{epoch: nil})
	return bytes, objects, nil
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (p *powerObjects) list() ([]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.step(); err != nil {
		return nil, err
	}
	return sortedKeys(p.root.names), nil
}

// afterPowerLoss is the disk as it comes back: every file its synced bytes,
// every directory its durable entries plus the pending changes keep admits.
func (p *powerObjects) afterPowerLoss(keep func(i int) bool) *powerObjects {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := make(map[*pnode]map[int]*pnode)
	for i, c := range p.pending {
		if !keep(i) {
			continue
		}
		names := kept[c.dir]
		if names == nil {
			names = maps.Clone(c.dir.durable)
			kept[c.dir] = names
		}
		for name, n := range c.binds {
			if n == nil {
				delete(names, name)
			} else {
				names[name] = n
			}
		}
	}
	var boot func(d *pnode) *pnode
	boot = func(d *pnode) *pnode {
		names, ok := kept[d]
		if !ok {
			names = d.durable
		}
		out := newPdir()
		for name, n := range names {
			if n.names != nil {
				out.names[name] = boot(n)
			} else {
				out.names[name] = &pnode{data: slices.Clip(n.synced), synced: n.synced}
			}
		}
		out.durable = maps.Clone(out.names)
		return out
	}
	return &powerObjects{root: boot(p.root)}
}

// imageDigest identifies a job image by what a restart gets from it (the
// fields sameImages compares, and the header).
func imageDigest(ji *JobImage) string {
	b := fmt.Appendf(nil, "%s %d %d %v\n", ji.Algorithm, ji.Ranks, ji.PPN, ji.CaptureVT)
	for _, ri := range ji.Images {
		b = fmt.Appendf(b, "%d %v %d %x %x\n", ri.Rank, ri.ClockVT, ri.Desc.Kind, ri.App, ri.Proto)
	}
	return string(b)
}

// checkRecovered holds one recovered disk to the store contract: every
// epoch Epochs lists verifies and loads to the digest it was sealed with,
// every epoch in must is listed and none in mustNot, and a sweep leaves
// nothing but the sealed epochs' manifests and the shards they hold.
func checkRecovered(p *powerObjects, want map[int]string, must, mustNot []int) error {
	s := layer{p}
	epochs, err := s.Epochs()
	if err != nil {
		return err
	}
	for _, e := range epochs {
		d, ok := want[e]
		if !ok {
			return fmt.Errorf("epoch %d is sealed, but nothing was committed under it", e)
		}
		img, err := LoadJobImage(s, e)
		if err != nil {
			return err
		}
		if imageDigest(img) != d {
			return fmt.Errorf("epoch %d loads another image than it sealed", e)
		}
	}
	if faults, err := VerifyStore(s); err != nil || len(faults) > 0 {
		return fmt.Errorf("VerifyStore: %v %v", faults, err)
	}
	for _, e := range must {
		if !slices.Contains(epochs, e) {
			return fmt.Errorf("sealed epoch %d lost (sealed: %v)", e, epochs)
		}
	}
	for _, e := range mustNot {
		if slices.Contains(epochs, e) {
			return fmt.Errorf("deleted epoch %d is back (sealed: %v)", e, epochs)
		}
	}
	if _, _, err := s.SweepUnsealed(math.MaxInt); err != nil {
		return err
	}
	for e, d := range p.root.names {
		if !slices.Contains(epochs, e) {
			return fmt.Errorf("unsealed epoch %d survived the sweep", e)
		}
		man, err := s.GetManifest(e)
		if err != nil {
			return err
		}
		for slot := range d.names {
			if slot != manifestSlot && (slot < 0 || slot >= len(man.Shards) || man.Shards[slot].RefEpoch != e) {
				return fmt.Errorf("sealed epoch %d holds object %d, which its manifest does not", e, slot)
			}
		}
	}
	return nil
}

// powerCase is one store operation to cut the power in.
type powerCase struct {
	name string
	// setup builds the store the operation starts from and returns the
	// digest of every image committed into it, the operation's own included.
	setup func(t *testing.T, s Store) map[int]string
	op    func(s Store) error
	kept  []int // sealed before the operation, and still sealed after it
	made  []int // sealed by it
	gone  []int // deleted by it
}

// TestPowerLossAtEveryStep cuts the power at every primitive step of a
// commit, a DeleteEpoch and a GCStore, and brings the disk back every way
// the model allows — no unsynced change kept, all of them, all but each one
// in turn. Whatever comes back must honor the contract (checkRecovered): an
// epoch sealed before the cut is still sealed, one deleted or sealed by an
// operation that returned stays so, and nothing sealed is damaged.
func TestPowerLossAtEveryStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a serial fan-out: the steps come in one order
	// img is the 3-rank test image captured at vt, each rank's state moved
	// by its delta: a rank whose delta an epoch shares with its parent is a
	// reference.
	img := func(vt float64, deltas ...byte) *JobImage {
		ji := testImage(3, 1)
		for r, d := range deltas {
			ji.Images[r].App[0] += d
		}
		ji.CaptureVT = vt
		return ji
	}
	commit := func(t *testing.T, s Store, want map[int]string, epoch int, parent *Manifest, ji *JobImage) *Manifest {
		man, _, err := CommitCapture(s, epoch, parent, ji)
		if err != nil {
			t.Fatal(err)
		}
		want[epoch] = imageDigest(ji)
		return man
	}
	var man1 *Manifest
	img2 := img(3, 2, 2, 1)
	cases := []powerCase{{
		name: "commit", // epoch 2: ranks 0 and 1 fresh, rank 2 a reference
		setup: func(t *testing.T, s Store) map[int]string {
			want := map[int]string{2: imageDigest(img2)}
			man0 := commit(t, s, want, 0, nil, img(1, 0, 0, 0))
			man1 = commit(t, s, want, 1, man0, img(2, 0, 0, 1))
			return want
		},
		op: func(s Store) error {
			_, _, err := CommitCapture(s, 2, man1, img2)
			return err
		},
		kept: []int{0, 1}, made: []int{2},
	}, {
		name: "delete", // epoch 0, which epoch 1 does not reference
		setup: func(t *testing.T, s Store) map[int]string {
			want := map[int]string{}
			commit(t, s, want, 0, nil, img(1, 0, 0, 0))
			commit(t, s, want, 1, nil, img(2, 1, 1, 1))
			return want
		},
		op: func(s Store) error {
			_, err := s.DeleteEpoch(0)
			return err
		},
		kept: []int{1}, gone: []int{0},
	}, {
		name: "gc", // keep 1: epoch 4 and the epoch 3 it references stay
		setup: func(t *testing.T, s Store) map[int]string {
			want := map[int]string{}
			man0 := commit(t, s, want, 0, nil, img(1, 0, 0, 0))
			commit(t, s, want, 1, man0, img(2, 0, 0, 1))
			if err := putShard(s, 2, 0, []byte("aborted commit")); err != nil {
				t.Fatal(err)
			}
			man3 := commit(t, s, want, 3, nil, img(4, 3, 3, 3))
			commit(t, s, want, 4, man3, img(5, 3, 4, 3))
			return want
		},
		op: func(s Store) error {
			_, err := GCStore(s, 1)
			return err
		},
		kept: []int{3, 4}, gone: []int{0, 1},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for cut := 1; ; cut++ {
				p := newPowerObjects()
				want := c.setup(t, layer{p})
				p.mu.Lock()
				p.cutAt = p.steps + cut
				p.mu.Unlock()
				err := c.op(layer{p})
				p.mu.Lock()
				done := !p.down
				p.down = true
				pending := len(p.pending)
				p.mu.Unlock()
				if done && err != nil {
					t.Fatalf("%s failed with the power on: %v", c.name, err)
				}
				must, mustNot := c.kept, []int(nil)
				if done {
					must, mustNot = append(slices.Clone(must), c.made...), c.gone
				}
				check := func(how string, keep func(int) bool) {
					if err := checkRecovered(p.afterPowerLoss(keep), want, must, mustNot); err != nil {
						t.Fatalf("power cut at step %d of the %s (completed: %v), %s: %v", cut, c.name, done, how, err)
					}
				}
				check("no unsynced change kept", func(int) bool { return false })
				check("every unsynced change kept", func(int) bool { return true })
				for drop := 0; drop < pending; drop++ {
					check(fmt.Sprintf("all but unsynced change %d of %d kept", drop+1, pending), func(i int) bool { return i != drop })
				}
				if done {
					t.Logf("power cut at each of %d steps, and after the last", cut-1)
					return
				}
			}
		})
	}
}

// manifestFault is an object layer whose manifest reads fail with err, the
// way a stat of manifest.ckpt fails with EIO or ESTALE.
type manifestFault struct {
	objects
	err error
}

func (f manifestFault) open(k objKey) (io.ReadCloser, error) {
	if k.slot == manifestSlot {
		return nil, f.err
	}
	return f.objects.open(k)
}

// TestManifestReadErrorIsNotUnsealed: only a manifest that does not exist
// makes an epoch unsealed. Any other failure to read it is returned by
// Epochs, SweepUnsealed and GCStore, and removes nothing — read as
// "unsealed", it would hand a sealed epoch to the sweep.
func TestManifestReadErrorIsNotUnsealed(t *testing.T) {
	mem := NewMemStore()
	commitLifecycleChain(t, mem)
	if err := putShard(mem, 4, 0, []byte("aborted commit")); err != nil {
		t.Fatal(err)
	}
	before := make(map[int]map[int][]byte)
	for e, objs := range mem.epochs {
		before[e] = maps.Clone(objs)
	}
	s := layer{manifestFault{mem, syscall.EIO}}
	if _, err := s.Epochs(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Epochs: %v, want EIO", err)
	}
	if _, _, err := s.SweepUnsealed(math.MaxInt); !errors.Is(err, syscall.EIO) {
		t.Errorf("SweepUnsealed: %v, want EIO", err)
	}
	if _, err := GCStore(s, 1); !errors.Is(err, syscall.EIO) {
		t.Errorf("GCStore: %v, want EIO", err)
	}
	if !reflect.DeepEqual(mem.epochs, before) {
		t.Error("a failed manifest read removed objects")
	}
}
