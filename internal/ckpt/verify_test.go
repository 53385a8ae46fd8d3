package ckpt

// Tests of the store's integrity walk over chains whose epochs share a
// source object: whatever the walk keeps between entries, each reader of a
// damaged object is faulted as a walk that read every entry on its own
// faults it.

import (
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// sharedSourceChain commits a 4-rank chain of the given number of epochs
// under a page-delta or CDC plan in which rank 1 changes every epoch and
// the other ranks never do: every later epoch's rank-1 entry is a partial
// one drawing on rank 1's epoch-0 object (until, from epoch 9, the page
// deltas have dirtied half the pages and re-anchor), and the other ranks'
// entries are references to their epoch-0 shards.
func sharedSourceChain(t testing.TB, format string, epochs int) *MemStore {
	t.Helper()
	store := NewMemStore()
	var man *Manifest
	switch format {
	case "page-delta":
		img := pagedImage(4, 6)
		for e := 0; e < epochs; e++ {
			if e > 0 {
				img.Images[1].App[int64(1+(e-1)%15)*testPageSize+5] ^= 0xFF
			}
			man, _ = commitPaged(t, store, e, man, img)
		}
	case "cdc":
		img := cdcImage(4, 9)
		for e := 0; e < epochs; e++ {
			if e > 0 {
				img.Images[1].App = insertAt(img.Images[1].App, (e*200_000)%(1<<20), noisyBytes(32, uint64(e)))
			}
			man, _ = commitCDC(t, store, e, man, img)
		}
	default:
		t.Fatalf("no %q chain", format)
	}
	return store
}

// faultLines renders a fault list one fault a line, with the object
// checksums blanked: stored bytes, and so their XXH64, depend on the gob
// type numbers of the process that wrote them.
func faultLines(faults []StoreFault) []string {
	sums := regexp.MustCompile(`checksum [0-9a-f]+, want [0-9a-f]+`)
	lines := make([]string, len(faults))
	for i, f := range faults {
		lines[i] = fmt.Sprintf("%d/%d/%d %s", f.Epoch, f.Rank, f.RefEpoch, sums.ReplaceAllString(f.Err.Error(), "checksum X, want Y"))
	}
	return lines
}

// TestVerifySharedSourceDamage: in a five-epoch page-delta chain and CDC
// chain, an object that later epochs read — rank 1's epoch-0 object, which
// every epoch draws on, the CDC chain's epoch-1 object, which every later
// epoch draws chunks from, rank 2's epoch-0 shard, which every epoch
// references — is flipped or cut in half, and VerifyStore must return the
// fault list pinned here, line for line: one fault for each entry that
// reads the object, in the words and order that the walk which read every
// entry on its own returned (recorded from it).
func TestVerifySharedSourceDamage(t *testing.T) {
	readersOf := func(epoch, rank int, own string, reader func(e int) string) []string {
		lines := []string{fmt.Sprintf("%d/%d/%d ckpt: epoch %d rank %d: %s", epoch, rank, epoch, epoch, rank, own)}
		for e := epoch + 1; e < 5; e++ {
			lines = append(lines, reader(e))
		}
		return lines
	}
	const corrupted = "shard corrupted (checksum X, want Y)"
	sourced := func(src int) func(e int) string {
		return func(e int) string {
			return fmt.Sprintf("%d/1/%d ckpt: epoch %d rank 1: source shard in epoch %d corrupted (checksum X, want Y)", e, e, e, src)
		}
	}
	referenced := func(e int) string {
		return fmt.Sprintf("%d/2/0 ckpt: epoch %d rank 2 (shard stored in epoch 0): shard corrupted (checksum X, want Y)", e, e)
	}
	flip := func(b []byte) []byte { b = slices.Clone(b); b[len(b)/2] ^= 0xFF; return b }
	cut := func(b []byte) []byte { return slices.Clone(b[:len(b)/2]) }
	rows := []struct {
		format, name string
		objs         [][2]int
		damage       func([]byte) []byte
		want         []string
	}{
		{"page-delta", "base flipped", [][2]int{{0, 1}}, flip, readersOf(0, 1, corrupted, sourced(0))},
		{"page-delta", "base cut", [][2]int{{0, 1}}, cut, readersOf(0, 1, corrupted, sourced(0))},
		{"page-delta", "delta flipped", [][2]int{{1, 1}}, flip, []string{"1/1/1 ckpt: epoch 1 rank 1: " + corrupted}},
		{"page-delta", "referenced shard flipped", [][2]int{{0, 2}}, flip, readersOf(0, 2, corrupted, referenced)},
		{"page-delta", "referenced shard cut", [][2]int{{0, 2}}, cut, readersOf(0, 2, corrupted, referenced)},
		{"cdc", "first object flipped", [][2]int{{0, 1}}, flip, readersOf(0, 1, corrupted, sourced(0))},
		{"cdc", "first object cut", [][2]int{{0, 1}}, cut, readersOf(0, 1, corrupted, sourced(0))},
		{"cdc", "chunk object flipped", [][2]int{{1, 1}}, flip, readersOf(1, 1, corrupted, sourced(1))},
		{"cdc", "chunk object cut", [][2]int{{1, 1}}, cut, readersOf(1, 1, corrupted, sourced(1))},
		{"cdc", "referenced shard flipped", [][2]int{{0, 2}}, flip, readersOf(0, 2, corrupted, referenced)},
		{"cdc", "referenced shard cut", [][2]int{{0, 2}}, cut, readersOf(0, 2, corrupted, referenced)},
		// Both sources of epochs 2-4 damaged: each reader names the older.
		{"cdc", "two sources flipped", [][2]int{{0, 1}, {1, 1}}, flip, []string{
			"0/1/0 ckpt: epoch 0 rank 1: " + corrupted,
			"1/1/1 ckpt: epoch 1 rank 1: " + corrupted,
			sourced(0)(2), sourced(0)(3), sourced(0)(4),
		}},
	}
	pristine := make(map[string]*MemStore)
	for _, format := range []string{"page-delta", "cdc"} {
		store := sharedSourceChain(t, format, 5)
		for e := 1; e < 5; e++ {
			man, err := store.GetManifest(e)
			if err != nil {
				t.Fatal(err)
			}
			if _, srcs := man.Shards[1].Sources(); !man.Shards[1].Partial() ||
				!slices.ContainsFunc(srcs, func(s ShardSource) bool { return s.Epoch == 0 && s.Rank == 1 }) ||
				format == "cdc" && e > 1 && !slices.ContainsFunc(srcs, func(s ShardSource) bool { return s.Epoch == 1 && s.Rank == 1 }) {
				t.Fatalf("%s epoch %d rank 1 does not draw on the objects the rows damage: %+v", format, e, srcs)
			}
		}
		pristine[format] = store
	}
	for _, row := range rows {
		t.Run(row.format+"/"+row.name, func(t *testing.T) {
			// A copy of the chain: objects are replaced, never written.
			store := NewMemStore()
			for e, objs := range pristine[row.format].epochs {
				store.epochs[e] = maps.Clone(objs)
			}
			for _, obj := range row.objs {
				blob, err := store.GetShard(obj[0], obj[1])
				if err != nil {
					t.Fatal(err)
				}
				if err := putShard(store, obj[0], obj[1], row.damage(blob)); err != nil {
					t.Fatal(err)
				}
			}
			faults, err := VerifyStore(store)
			if err != nil {
				t.Fatal(err)
			}
			if got := faultLines(faults); !slices.Equal(got, row.want) {
				t.Fatalf("faults:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(row.want, "\n"))
			}
		})
	}
}

// TestVerifyOpensEachObjectOnce: VerifyStore over a page-delta chain and a
// CDC chain of 6 and 12 epochs opens every stored object exactly once, so
// it decodes each object's bytes once however many epochs read them. (The
// walk that checked each entry on its own opened a source once for every
// epoch that read it.)
func TestVerifyOpensEachObjectOnce(t *testing.T) {
	for _, format := range []string{"page-delta", "cdc"} {
		for _, epochs := range []int{6, 12} {
			t.Run(fmt.Sprintf("%s/%d", format, epochs), func(t *testing.T) {
				cs := &openCountingStore{MemStore: sharedSourceChain(t, format, epochs), opens: make(map[[2]int]int)}
				want := make(map[[2]int]int)
				var decoded, read int64
				for e := 0; e < epochs; e++ {
					man, err := cs.GetManifest(e)
					if err != nil {
						t.Fatal(err)
					}
					for i := range man.Shards {
						si := &man.Shards[i]
						if si.RefEpoch == e {
							want[[2]int{e, si.Rank}] = 1
							decoded += si.sourceStreamLen()
						}
						_, srcs := si.Sources()
						for _, s := range srcs {
							read += s.Bytes
						}
					}
				}
				faults, err := VerifyStore(cs)
				if err != nil || len(faults) != 0 {
					t.Fatalf("pristine chain: faults %v, err %v", faults, err)
				}
				if !maps.Equal(cs.opens, want) {
					t.Fatalf("objects opened %v, want each of %v once", cs.opens, want)
				}
				t.Logf("%d objects, %d decoded bytes, each opened once; partial entries draw %d bytes from other objects", len(want), decoded, read)
			})
		}
	}
}
