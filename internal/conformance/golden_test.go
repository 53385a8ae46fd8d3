package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"sync"
	"testing"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// goldenChildEnv marks the process TestStoredBytesGolden re-executes itself
// in.
const goldenChildEnv = "MANA_GOLDEN_CHILD"

// gatedApp holds rank 0 at its trigger step until every other rank has run
// out of steps, so leg 0 always captures finished cold ranks no matter how
// the host schedules the rank goroutines. With one hot rank the captured
// bytes are then a function of the program alone.
type gatedApp struct {
	rt.App
	rank, atStep, done int
	left               *sync.WaitGroup // cold ranks still stepping
}

func (a *gatedApp) Step(env *rt.Env) (bool, error) {
	more, err := a.App.Step(env)
	a.done++
	if a.rank != 0 && !more {
		a.left.Done()
	}
	if a.rank == 0 && a.done == a.atStep {
		a.left.Wait()
	}
	return more, err
}

func (a *gatedApp) SnapshotTo(w io.Writer) error {
	return a.App.(rt.StreamSnapshotter).SnapshotTo(w)
}

// goldenConfig is the job the golden chains run: three ranks on two nodes.
func goldenConfig() rt.Config {
	return rt.Config{Ranks: 3, PPN: 2, Params: netmodel.EthernetLike(), Algorithm: rt.AlgoCC}
}

// goldenStraggler builds the golden chains' program: one hot rank with
// 1.6 MB of state (dozens of pages and chunks) and two small cold ranks,
// long enough to outlast every leg of a chain.
func goldenStraggler(insertEvery int) func(rank int) rt.App {
	cfg := apps.StragglerConfig{
		HotRanks: 1, ColdSteps: 2, HotIters: 18,
		StateElems: 3000, HotStateElems: 200000, InsertEvery: insertEvery,
	}
	return func(rank int) rt.App { return apps.NewStraggler(cfg, rank) }
}

// goldenDigests splits what a chain stored three ways, so a change to the
// 64-bit identity hash can show that it moved nothing else: objects covers
// every stored object's bytes and size, shape every manifest entry with its
// stream identities (Checksum, RawSum, DeltaRawSum, chunk Sum) blanked, and
// records the sealed manifest records whole.
type goldenDigests struct{ objects, shape, records string }

// goldenChain runs an allocation chain of the straggler (one hot rank, two
// cold ones) into a MemStore: leg 0 from a fresh start, every later leg a
// restart from the newest epoch, each leg sealing one epoch and exiting. It
// returns the store and its digests, taken in epoch and rank order.
func goldenChain(t *testing.T, plan rt.CkptPlan, insertEvery int) (*ckpt.MemStore, goldenDigests) {
	t.Helper()
	const legs, atStep = 4, 3
	store := ckpt.NewMemStore()
	plan.AtStep, plan.Mode, plan.Store, plan.Async = atStep, ckpt.ExitAfterCapture, store, true
	cfg := goldenConfig()
	cfg.Checkpoint = &plan
	plain := goldenStraggler(insertEvery)
	ranks := cfg.Ranks

	var left sync.WaitGroup
	left.Add(ranks - 1)
	if _, err := rt.Run(cfg, func(rank int) rt.App {
		return &gatedApp{App: plain(rank), rank: rank, atStep: atStep, left: &left}
	}); err != nil {
		t.Fatalf("leg 0: %v", err)
	}
	for k := 1; k < legs; k++ {
		rep, err := rt.RestartFromStore(cfg, store, -1, plain)
		if err != nil {
			t.Fatalf("leg %d: %v", k, err)
		}
		// A restart leg tells the coordinator how big each rank's state
		// was, so the hot rank's capture buffer is sized once with a few
		// percent of headroom, not doubled up to it.
		if app := rep.Image.Images[0].App; cap(app) > len(app)+len(app)/16+8192 {
			t.Errorf("leg %d: hot rank captured %d bytes into a %d-byte buffer (restart image's size hint not used)", k, len(app), cap(app))
		}
	}

	epochs, err := store.Epochs()
	if err != nil || len(epochs) != legs {
		t.Fatalf("sealed epochs %v (err %v), want %d", epochs, err, legs)
	}
	objects, shape, records := sha256.New(), sha256.New(), sha256.New()
	for _, e := range epochs {
		man, err := store.GetManifest(e)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ckpt.EncodeManifestRecord(man)
		if err != nil {
			t.Fatal(err)
		}
		records.Write(rec)
		// The epoch's write charge, from the manifest alone, is the bytes of
		// the objects the epoch holds (nothing here is padded or collected).
		charged, stored := ckpt.WriteBytesOf(man), int64(0)
		for i := range man.Shards {
			si := &man.Shards[i] // decoded for this call alone, so free to edit
			fmt.Fprintf(records, "|%d/%d %d %x|", e, si.Rank, si.Size, si.Checksum)
			if si.RefEpoch == e {
				blob, err := store.GetShard(e, si.Rank)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(objects, "|%d/%d %d|", e, si.Rank, len(blob))
				objects.Write(blob)
				stored += int64(len(blob))
			}
			// The entry minus its 64-bit stream identities: what is left is
			// geometry, references and the CRC-32C tables.
			si.Checksum, si.RawSum, si.DeltaRawSum = 0, 0, 0
			for k := range si.Chunks {
				si.Chunks[k].Sum = 0
			}
		}
		fmt.Fprintf(shape, "%+v\n", *man)
		if charged != stored {
			t.Errorf("epoch %d: manifest prices %d written bytes, the store holds %d", e, charged, stored)
		}
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	return store, goldenDigests{sum(objects), sum(shape), sum(records)}
}

// TestStoredBytesGolden pins what reaches the store: for a fixed straggler
// chain under each storage plan, every stored object and every sealed
// manifest record must match pinned digests. All three were recorded on the
// last commit that hashed with FNV-1a; the change to XXH64 re-recorded
// records alone and left objects and shape as they were, which is the proof
// that only 64-bit sum values moved. objects still stands as recorded then;
// shape and records were re-recorded once more when ShardInfo lost its
// Offset field with the blob image format (every other part of that change
// passed against the old digests first, and the old shape with the text
// "Offset:0 " struck from it digests to the new one). When partial objects
// lost their gob header, delta and cdc were re-recorded: their objects and
// shape digests were first computed on the commit before, from its chains
// with each partial object's header struck — its first DeltaRawSize − own
// bytes cut from the object, and subtracted from DeltaRawSize, from Size and
// from every SrcOff into it — and this tree reproduces them; records moved
// with the checksums. All nine were re-recorded when the CC sequence table
// left gob for fixed-width (group, seq) pairs, because every shard carries
// the protocol section: on the commit before, and on this tree, every plan,
// epoch and rank of these chains (`none` codec, 36 in all) was loaded back,
// and each App section had the same SHA-256 and length on both, and the
// sequence table decoded from the old gob equalled the one decoded from the
// new bytes; only the protocol section changed, 137 → 40 bytes a rank.
// The pinned digests use the `none` codec (a stored object is then its
// stored stream) so they do not depend on the toolchain's deflate; the
// flate digests are logged for differential runs against another commit.
//
// The chains run in a child process that has done nothing else: gob numbers
// user types process-wide in order of first use, and those numbers are in
// every shard header and manifest, so the bytes depend on what the process
// encoded before (one process writes a chain in production; a shared test
// binary does not).
func TestStoredBytesGolden(t *testing.T) {
	if os.Getenv(goldenChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStoredBytesGolden$", "-test.v")
		cmd.Env = append(os.Environ(), goldenChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("child process:\n%s", out)
		if err != nil {
			t.Fatalf("golden chains failed in the child process: %v", err)
		}
		return
	}
	plans := []struct {
		name        string
		plan        rt.CkptPlan
		insertEvery int
		want        goldenDigests
		partial     func(*ckpt.ShardInfo) bool // the plan's partial-object format
	}{
		{"full", rt.CkptPlan{}, 0, goldenDigests{
			objects: "f3f498c8e5bb832f24d5e5450e2a2044d586ee4084d11c0a1c4609a654dac3fe",
			shape:   "6e9e3957eaeb3ce9c88cdd7fedd20ec16c9eecf40b7b9954344ad0a8d4a1e946",
			records: "0b5bfe86ba67da529122165567c61331c07fe406775e049cb7e72a068c09d8c7",
		}, nil},
		{"delta", rt.CkptPlan{Incremental: true, Delta: true}, 0, goldenDigests{
			objects: "848514324352904a1bec1761286d1c581687b2db7174d60f2634abbb21297f96",
			shape:   "7f89905deea214076b766cdf6e88fc892cb9cf752d3e81f230e19a4fb15c6fd8",
			records: "50cf245452662209d5e856c9eb4be44ebb40fcee7fc1f2862ff0ae7405b0edaf",
		},
			func(si *ckpt.ShardInfo) bool { return si.RawFormat == ckpt.RawFormatPageDelta }},
		{"cdc", rt.CkptPlan{Incremental: true, CDC: true}, 1, goldenDigests{
			objects: "5e8ba3632834d7ae70e35e433ca76baaae01bb41dff6f15331de5fb0d8d8d269",
			shape:   "25c0b29f2d40335af54e5ebc731372fe110a75202867d3aa2e2a0cd9305adacf",
			records: "c4febf8207e7a1d3779ccc13e335473a2af0a961878e97dee7cecf9c1fc8b4d2",
		},
			func(si *ckpt.ShardInfo) bool { return si.RawFormat == ckpt.RawFormatCDC }},
	}
	for _, p := range plans {
		p := p
		t.Run(p.name, func(t *testing.T) {
			flatePlan := p.plan
			_, flateDigest := goldenChain(t, flatePlan, p.insertEvery)
			t.Logf("flate digests %+v", flateDigest)

			nonePlan := p.plan
			nonePlan.Codec = "none"
			store, got := goldenChain(t, nonePlan, p.insertEvery)
			if got != p.want {
				t.Errorf("stored bytes changed (see goldenDigests for what each digest covers):\n got %+v\nwant %+v", got, p.want)
			}

			// The chain must actually exercise the plan's partial objects and
			// whole-shard reuse, or the digest pins nothing of interest.
			latest, err := ckpt.LatestEpoch(store)
			if err != nil {
				t.Fatal(err)
			}
			man, err := store.GetManifest(latest)
			if err != nil {
				t.Fatal(err)
			}
			if p.partial != nil {
				if !p.partial(&man.Shards[0]) {
					t.Errorf("hot rank stored as format %d, not the plan's partial object", man.Shards[0].RawFormat)
				}
				if man.Shards[1].RefEpoch == latest {
					t.Errorf("cold rank rewritten in epoch %d, want a reference", latest)
				}
			}
			if faults, err := ckpt.VerifyStore(store); err != nil || len(faults) > 0 {
				t.Fatalf("store does not verify: %v %v", err, faults)
			}

			// Every sealed epoch restarts into the uninterrupted run's state.
			epochs, _ := store.Epochs()
			var digest string
			for _, e := range epochs {
				rep, err := rt.RestartFromStore(goldenConfig(), store, e, goldenStraggler(p.insertEvery))
				if err != nil || !rep.Completed {
					t.Fatalf("restart from epoch %d: %v", e, err)
				}
				if digest == "" {
					digest = rep.StateDigest
				} else if rep.StateDigest != digest {
					t.Fatalf("restart from epoch %d diverged: %.12s != %.12s", e, rep.StateDigest, digest)
				}
			}
		})
	}
}
