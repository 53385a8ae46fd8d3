package ckpt

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// pinPlan is the part of a checkpoint plan a seal is priced from. The job is
// always 4 ranks at 2 per node: two writer nodes.
type pinPlan struct {
	params netmodel.Params
	async  bool
	codec  string
}

// pinPrice is what one seal cost, as the bits of each figure.
type pinPrice struct {
	Total, Stall, Overlap uint64
}

func (p pinPrice) String() string {
	return fmt.Sprintf("{%#x, %#x, %#x}", p.Total, p.Stall, p.Overlap)
}

// pinSealer commits, compacts and collects through whatever this tree prices
// a seal with. It is the only part of the pin that knows how: the scenarios
// and the table below are the same text on the commit that recorded them.
// Here that is a coordinator with no job running under it.
type pinSealer struct {
	c *Coordinator
}

func newPinSealer(t *testing.T, plan pinPlan) *pinSealer {
	t.Helper()
	c, err := NewCoordinator(mpi.NewWorld(4, netmodel.New(plan.params, 2)), &Plan{
		Store: NewMemStore(), Async: plan.async, Codec: plan.codec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &pinSealer{c: c}
}

func pinPriceOf(p netmodel.WriteCost) pinPrice {
	return pinPrice{Total: math.Float64bits(p.Total), Stall: math.Float64bits(p.Stall), Overlap: math.Float64bits(p.Overlap)}
}

// seal builds img's epoch against parent — hashed the way the plan's diff
// mode hashes ("", "delta" or "cdc") — and seals it at the coordinator's
// price.
func (s *pinSealer) seal(t *testing.T, mode string, epoch int, parent *Manifest, img *JobImage) (*Manifest, netmodel.WriteCost) {
	t.Helper()
	var sums *ShardSums
	var err error
	switch mode {
	case "delta":
		sums, err = HashCapturePaged(img, testPageSize)
	case "cdc":
		sums, err = HashCaptureCDC(img)
	default:
		sums, err = HashCapture(img)
	}
	if err != nil {
		t.Fatal(err)
	}
	codec, err := CodecByName(s.c.Plan.Codec)
	if err != nil {
		t.Fatal(err)
	}
	man, _, err := buildCommit(s.c.Plan.Store, codec, epoch, parent, img, sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	price, err := s.c.seal(man)
	if err != nil {
		t.Fatal(err)
	}
	return man, price
}

func (s *pinSealer) commit(t *testing.T, mode string, epoch int, parent *Manifest, img *JobImage) (*Manifest, pinPrice) {
	t.Helper()
	man, price := s.seal(t, mode, epoch, parent, img)
	return man, pinPriceOf(price)
}

// compact rewrites epoch as a self-contained one and prices that seal.
func (s *pinSealer) compact(t *testing.T, epoch int) (*Manifest, pinPrice) {
	t.Helper()
	man, _, err := compactChain(s.c.Plan.Store, epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	price, err := s.c.seal(man)
	if err != nil {
		t.Fatal(err)
	}
	return man, pinPriceOf(price)
}

// collect runs the retention pass, folds it into a history entry the way a
// commit's lifecycle pass is folded, and returns the bits of its modeled
// time.
func (s *pinSealer) collect(t *testing.T, keep int) (*GCStats, uint64) {
	t.Helper()
	st, err := GCStore(s.c.Plan.Store, keep)
	if err != nil {
		t.Fatal(err)
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.history = append(c.history, CheckpointStats{})
	c.applyCommitLocked(len(c.history)-1, commitResult{stats: &CommitStats{}, compacted: -1, gc: st})
	return st, math.Float64bits(c.history[len(c.history)-1].GCVT)
}

const pinChildEnv = "MANA_PRICE_PIN_CHILD"

// TestSealPricePinned pins what a sealed epoch is charged: the bits of the
// write cost and its stall/overlap split, for hand-built images sealed
// without a running job — full, whole-shard reuse, page-delta and CDC
// epochs, each at its stored size and at a padded image size; stalled and
// overlapped; one compaction and one retention pass. The table was recorded
// on the last commit that metered writes in a store decorator, through that
// decorator; the coordinator's seal must price every row the same. Four rows
// were re-recorded once since, all lower, when partial objects stopped
// storing a gob header in front of their extents: the unpadded partial seals
// (delta/pfs and cdc/pfs, partial and partial-2), the only rows priced on a
// partial object's stored size.
//
// The table once had a fourth word, a burst-buffer epoch's background drain
// to the parallel filesystem; the burst tier is gone and the word with it.
// The delta/pfs/padded and cdc/pfs/padded rows are the only padded partial
// seals. Each base, partial, partial-2 and compacted row's Total and Stall
// is the drain word of the burst row it replaced — that drain was a
// synchronous parallel-filesystem write of the same bytes — and both were
// run against the commit that still had the burst rows before they went in.
//
// Unpadded prices follow stored sizes, which follow the gob type numbers the
// process has handed out, so — like the stored-bytes golden test — the
// scenarios run in a child process that has done nothing else.
func TestSealPricePinned(t *testing.T) {
	if os.Getenv(pinChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSealPricePinned$", "-test.v")
		cmd.Env = append(os.Environ(), pinChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("child process:\n%s", out)
		if err != nil {
			t.Fatalf("price pin failed in the child process: %v", err)
		}
		return
	}

	got := map[string]string{}
	var order []string
	record := func(name string, p fmt.Stringer) {
		got[name] = p.String()
		order = append(order, name)
	}
	const pad = 32 << 20
	perl, eth := netmodel.PerlmutterLike(), netmodel.EthernetLike()
	padded := func(img *JobImage, bytes int64) *JobImage {
		img.PaddedBytesPerRank = bytes
		return img
	}

	// Whole-shard epochs: full, one rank changed, nothing changed.
	for _, v := range []struct {
		name string
		plan pinPlan
		pad  int64
	}{
		{"pfs/sync", pinPlan{params: eth}, 0},
		{"pfs/sync/none", pinPlan{params: eth, codec: "none"}, 0},
		{"pfs/sync/padded", pinPlan{params: perl}, pad},
		{"pfs/async/padded", pinPlan{params: perl, async: true}, pad},
	} {
		s := newPinSealer(t, v.plan)
		man0, p := s.commit(t, "", 0, nil, padded(testJobImage(4), v.pad))
		record(v.name+"/full", p)
		img := padded(testJobImage(4), v.pad)
		img.Images[2].App[5] ^= 0x40
		man1, p := s.commit(t, "", 1, man0, img)
		record(v.name+"/one-fresh", p)
		img = padded(testJobImage(4), v.pad)
		img.Images[2].App[5] ^= 0x40
		_, p = s.commit(t, "", 2, man1, img)
		record(v.name+"/all-reused", p)
	}

	// Partial objects, then the chain compacted and collected.
	for _, v := range []struct {
		name, mode string
		plan       pinPlan
		pad        int64
	}{
		{"delta/pfs", "delta", pinPlan{params: eth}, 0},
		{"delta/pfs/padded", "delta", pinPlan{params: perl}, pad},
		{"cdc/pfs", "cdc", pinPlan{params: eth}, 0},
		{"cdc/pfs/padded", "cdc", pinPlan{params: perl}, pad},
	} {
		s := newPinSealer(t, v.plan)
		build := func(step int) *JobImage {
			var img *JobImage
			if v.mode == "cdc" {
				img = cdcImage(4, 11)
				for k := 0; k < step; k++ {
					img.Images[1].App = insertAt(img.Images[1].App, 300000+k*4096, noisyBytes(40, uint64(k)))
				}
			} else {
				img = pagedImage(4, 7)
				for k := 0; k < step; k++ {
					img.Images[1].App[5000+k*2048] ^= 0x11
				}
			}
			return padded(img, v.pad)
		}
		man0, p := s.commit(t, v.mode, 0, nil, build(0))
		record(v.name+"/base", p)
		man1, p := s.commit(t, v.mode, 1, man0, build(1))
		record(v.name+"/partial", p)
		if !shardOf(t, man1, 1).Partial() {
			t.Fatalf("%s: rank 1 sealed as format %d, want a partial object", v.name, shardOf(t, man1, 1).RawFormat)
		}
		man2, p := s.commit(t, v.mode, 2, man1, build(2))
		record(v.name+"/partial-2", p)
		man3, p := s.compact(t, man2.Epoch)
		record(v.name+"/compacted", p)
		if man3.Epoch != 3 {
			t.Fatalf("%s: compacted into epoch %d", v.name, man3.Epoch)
		}
		st, vt := s.collect(t, 1)
		record(v.name+"/gc", pinBits(vt))
		if st.DeletedEpochs != 3 {
			t.Fatalf("%s: gc deleted %d epochs, want the three the compaction retired", v.name, st.DeletedEpochs)
		}
	}

	want := map[string]string{
		"pfs/sync/full":               "{0x3fd020c4d09c3da2, 0x3fd020c4d09c3da2, 0x0}",
		"pfs/sync/one-fresh":          "{0x3fd020c4a8bf6602, 0x3fd020c4a8bf6602, 0x0}",
		"pfs/sync/all-reused":         "{0x3fd020c49ba5e354, 0x3fd020c49ba5e354, 0x0}",
		"pfs/sync/none/full":          "{0x3fd020c4e49bd77f, 0x3fd020c4e49bd77f, 0x0}",
		"pfs/sync/none/one-fresh":     "{0x3fd020c4ad78dc7b, 0x3fd020c4ad78dc7b, 0x0}",
		"pfs/sync/none/all-reused":    "{0x3fd020c49ba5e354, 0x3fd020c49ba5e354, 0x0}",
		"pfs/sync/padded/full":        "{0x3fd057be5b5992cf, 0x3fd057be5b5992cf, 0x0}",
		"pfs/sync/padded/one-fresh":   "{0x3fd02e830b92cf33, 0x3fd02e830b92cf33, 0x0}",
		"pfs/sync/padded/all-reused":  "{0x3fd020c49ba5e354, 0x3fd020c49ba5e354, 0x0}",
		"pfs/async/padded/full":       "{0x3fd057be5b5992cf, 0x3fd0000000000000, 0x3f75ef96d664b3c0}",
		"pfs/async/padded/one-fresh":  "{0x3fd02e830b92cf33, 0x3fd0000000000000, 0x3f674185c9679980}",
		"pfs/async/padded/all-reused": "{0x3fd020c49ba5e354, 0x3fd0000000000000, 0x3f60624dd2f1aa00}",
		"delta/pfs/base":              "{0x3fd020c5030ca164, 0x3fd020c5030ca164, 0x0}",
		"delta/pfs/partial":           "{0x3fd020c4a413adf8, 0x3fd020c4a413adf8, 0x0}",
		"delta/pfs/partial-2":         "{0x3fd020c4a4e1d687, 0x3fd020c4a4e1d687, 0x0}",
		"delta/pfs/compacted":         "{0x3fd020c5035f1804, 0x3fd020c5035f1804, 0x0}",
		"delta/pfs/gc":                "0x3fd2e147ae147ae1",
		"delta/pfs/padded/base":       "{0x3fd057be5b5992cf, 0x3fd057be5b5992cf, 0x0}",
		"delta/pfs/padded/partial":    "{0x3fd0219844a21ee3, 0x3fd0219844a21ee3, 0x0}",
		"delta/pfs/padded/partial-2":  "{0x3fd0226beda539aa, 0x3fd0226beda539aa, 0x0}",
		"delta/pfs/padded/compacted":  "{0x3fd057be5b5992cf, 0x3fd057be5b5992cf, 0x0}",
		"delta/pfs/padded/gc":         "0x3fd2e147ae147ae1",
		"cdc/pfs/base":                "{0x3fd0227cbb4bf7cf, 0x3fd0227cbb4bf7cf, 0x0}",
		"cdc/pfs/partial":             "{0x3fd020d8516025f8, 0x3fd020d8516025f8, 0x0}",
		"cdc/pfs/partial-2":           "{0x3fd020d8527306b6, 0x3fd020d8527306b6, 0x0}",
		"cdc/pfs/compacted":           "{0x3fd0227cbd71b94c, 0x3fd0227cbd71b94c, 0x0}",
		"cdc/pfs/gc":                  "0x3fd2e147ae147ae1",
		"cdc/pfs/padded/base":         "{0x3fd057be5b5992cf, 0x3fd057be5b5992cf, 0x0}",
		"cdc/pfs/padded/partial":      "{0x3fd0233ad93faddd, 0x3fd0233ad93faddd, 0x0}",
		"cdc/pfs/padded/partial-2":    "{0x3fd0233af56f3966, 0x3fd0233af56f3966, 0x0}",
		"cdc/pfs/padded/compacted":    "{0x3fd057be5b5992cf, 0x3fd057be5b5992cf, 0x0}",
		"cdc/pfs/padded/gc":           "0x3fd2e147ae147ae1",
	}
	for _, name := range order {
		if got[name] != want[name] {
			t.Errorf("%s priced %s, pinned %s", name, got[name], want[name])
		}
	}
	if len(want) != len(order) {
		t.Errorf("%d rows priced, %d pinned", len(order), len(want))
	}
	if t.Failed() {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "\t\t%q: %q,\n", name, got[name])
		}
		t.Logf("priced now:\n%s", b.String())
	}
}

// pinBits prints one figure's bits.
type pinBits uint64

func (b pinBits) String() string { return fmt.Sprintf("%#x", uint64(b)) }

// countingStore counts the bytes written into each epoch's shard objects.
type countingStore struct {
	Store
	mu      sync.Mutex
	written map[int]int64
}

type countingWriter struct {
	io.WriteCloser
	s     *countingStore
	epoch int
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.s.mu.Lock()
	w.s.written[w.epoch] += int64(n)
	w.s.mu.Unlock()
	return n, err
}

func (s *countingStore) PutShardStream(epoch, rank int) (io.WriteCloser, error) {
	w, err := s.Store.PutShardStream(epoch, rank)
	return countingWriter{w, s, epoch}, err
}

func (s *countingStore) PutShard(epoch, rank int, blob []byte) error {
	return putShardBlob(s, epoch, rank, blob)
}

// TestWriteBytesOf: the write charge derived from a sealed manifest is what
// a store saw written for that epoch — over whole-shard reuse, page-delta and
// CDC chains and their compactions — and it is the restart epoch's share of
// the read set: the two sides of the model priced from one manifest by one
// expression. With a padded image size the two still agree, until a partial
// object's share of the padding rounds below the one byte a write is charged
// at least.
func TestWriteBytesOf(t *testing.T) {
	chains := []struct {
		name   string
		build  func(step int) *JobImage
		commit func(t testing.TB, store Store, epoch int, parent *Manifest, img *JobImage) (*Manifest, *CommitStats)
	}{
		{"reuse", func(step int) *JobImage {
			img := testImage(4, 1)
			img.Images[2].App[0] += byte(step)
			return img
		}, func(t testing.TB, store Store, epoch int, parent *Manifest, img *JobImage) (*Manifest, *CommitStats) {
			man, st, err := CommitCapture(store, epoch, parent, img)
			if err != nil {
				t.Fatal(err)
			}
			return man, st
		}},
		{"delta", func(step int) *JobImage {
			img := pagedImage(4, 7)
			for k := 0; k < step; k++ {
				img.Images[1].App[5000+k*2048] ^= 0x11
			}
			return img
		}, commitPaged},
		{"cdc", func(step int) *JobImage {
			img := cdcImage(4, 11)
			for k := 0; k < step; k++ {
				img.Images[1].App = insertAt(img.Images[1].App, 300000+k*4096, noisyBytes(40, uint64(k)))
			}
			return img
		}, commitCDC},
	}
	for _, ch := range chains {
		for _, pad := range []int64{0, 32 << 20, 3} {
			t.Run(fmt.Sprintf("%s/pad=%d", ch.name, pad), func(t *testing.T) {
				store := &countingStore{Store: NewMemStore(), written: map[int]int64{}}
				var mans []*Manifest
				var parent *Manifest
				for e := 0; e < 3; e++ {
					img := ch.build(e)
					img.PaddedBytesPerRank = pad
					parent, _ = ch.commit(t, store, e, parent, img)
					mans = append(mans, parent)
				}
				compacted, _, err := CompactChain(store, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				var partials, flooredShares int64
				for _, man := range append(mans, compacted) {
					got := WriteBytesOf(man)
					read := ReadSetOf(man)[0]
					if read.Epoch != man.Epoch {
						t.Fatalf("epoch %d: read set leads with epoch %d", man.Epoch, read.Epoch)
					}
					var floored int64 // partial shares that rounded to nothing
					for i := range man.Shards {
						si := &man.Shards[i]
						if own, _ := si.Sources(); si.RefEpoch == man.Epoch && pad > 0 && si.paddedShare(pad, own) < 1 {
							floored++
						}
						if si.RefEpoch == man.Epoch && si.Partial() {
							partials++
						}
					}
					if pad == 0 && got != store.written[man.Epoch] {
						t.Errorf("epoch %d: manifest prices %d written bytes, the store saw %d", man.Epoch, got, store.written[man.Epoch])
					}
					if got != read.Bytes+floored {
						t.Errorf("epoch %d: write side %d bytes, read side %d (+%d floored)", man.Epoch, got, read.Bytes, floored)
					}
					flooredShares += floored
				}
				// The fixtures must reach both regimes, or the equalities above
				// say less than they read.
				if (partials > 0) != (ch.name != "reuse") {
					t.Fatalf("chain sealed %d partial objects", partials)
				}
				if (flooredShares > 0) != (pad == 3 && partials > 0) {
					t.Fatalf("%d partial shares rounded below one byte at pad %d", flooredShares, pad)
				}
			})
		}
	}
}
