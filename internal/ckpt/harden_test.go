package ckpt

// Hardening of the one decode path a checkpoint has: a store epoch — a
// sealed manifest record and one object per rank — read through the store's
// own load, verify and extract. One damage list states what every kind of
// damage must produce — an error that names what is wrong, attributed to
// the rank whose object was hit, never a panic or an allocation sized by a
// lie. FuzzOpenImage explores around the same list.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// epochDamage is one way to damage a store epoch.
type epochDamage struct {
	kind, name string
	epoch      int      // the key the epoch is held under: its record's own
	rec        []byte   // the manifest record
	objects    [][]byte // rank r's object; nil when it is missing
	// rank is the shard the damage hit: VerifyStore faults exactly this rank
	// and every other rank still extracts. -1 when the damage is to the
	// record, and every read of the epoch must refuse it.
	rank int
	want string // what the load error must say
}

// installEpoch holds rec and objects as the one epoch of a MemStore, where a
// commit would have left them.
func installEpoch(epoch int, rec []byte, objects [][]byte) *MemStore {
	objs := map[int][]byte{manifestSlot: rec}
	for r, o := range objects {
		if o != nil {
			objs[r] = o
		}
	}
	store := NewMemStore()
	store.epochs[epoch] = objs
	return store
}

// epochDamageList is THE damage list over a committed epoch of n ranks
// (n >= 3), returned with the pristine record and objects. Kinds:
// "truncated" — the record at every length through its 20-byte header and
// at a stride through its body, each rank's object at a few lengths, and
// each rank's object missing; "flipped" — one byte in the record's magic,
// its length word and its body and in the middle of EACH rank's object,
// plus trailing bytes on the record and on each object; "record" — a
// re-sealed (internally checksummed) record that lies: hostile geometry, an
// entry that references another epoch or is a partial object drawing on
// one, a partial object in the retired headed layout, an epoch on a retired
// storage tier, an object's stored size, a page no merge may buffer, gob
// bytes after the manifest.
func epochDamageList(t testing.TB, n int) (rec []byte, objects [][]byte, list []epochDamage) {
	t.Helper()
	store, man := commitTestImage(t, testJobImage(n))
	rec = store.epochs[0][manifestSlot]
	objects = make([][]byte, n)
	for r := range objects {
		objects[r] = store.epochs[0][r]
	}
	add := func(kind, name string, epoch int, rec []byte, objects [][]byte, rank int, want string) {
		list = append(list, epochDamage{kind, name, epoch, rec, objects, rank, want})
	}
	withObject := func(r int, o []byte) [][]byte {
		out := slices.Clone(objects)
		out[r] = o
		return out
	}
	flip := func(b []byte, at int, mask byte) []byte {
		bad := slices.Clone(b)
		bad[at] ^= mask
		return bad
	}
	corrupted := func(r int) string { return fmt.Sprintf("epoch 0 rank %d: shard corrupted (checksum ", r) }

	add("flipped", "record magic", 0, flip(rec, 3, 0xFF), objects, -1, "not a manifest record")
	add("flipped", "record length word", 0, flip(rec, 8, 0x01), objects, -1, "manifest record")
	add("flipped", "record", 0, flip(rec, (20+len(rec))/2, 0xFF), objects, -1, "manifest record corrupted")
	for r, o := range objects {
		add("flipped", fmt.Sprintf("rank %d object", r), 0, rec, withObject(r, flip(o, len(o)/2, 0xFF)), r, corrupted(r))
	}
	add("flipped", "record trailing bytes", 0, append(slices.Clone(rec), 0xEE, 0xEE), objects, -1,
		"manifest record has 2 trailing bytes")
	for r, o := range objects {
		add("flipped", fmt.Sprintf("rank %d object trailing bytes", r), 0, rec, withObject(r, append(slices.Clone(o), 0xEE, 0xEE)), r, corrupted(r))
	}
	for l := 0; l < len(rec); l += max(1, (l-20)/8) {
		want := "manifest record truncated"
		if l < 20 {
			want = "not a manifest record"
		}
		add("truncated", fmt.Sprintf("record to %d of %d bytes", l, len(rec)), 0, rec[:l], objects, -1, want)
	}
	for r, o := range objects {
		for _, l := range []int{0, 1, len(o) / 3, len(o) / 2, len(o) - 1} {
			add("truncated", fmt.Sprintf("rank %d object to %d of %d bytes", r, l, len(o)), 0, rec, withObject(r, o[:l]), r, corrupted(r))
		}
		add("truncated", fmt.Sprintf("rank %d object missing", r), 0, rec, withObject(r, nil), r, fmt.Sprintf("epoch 0 rank %d: ", r))
	}

	forge := func(name string, rank int, want string, mutate func(m *Manifest)) {
		m := *man
		m.Shards = append([]ShardInfo(nil), man.Shards...)
		mutate(&m)
		rec, err := EncodeManifestRecord(&m)
		if err != nil {
			t.Fatal(err)
		}
		add("record", name, m.Epoch, rec, objects, rank, want)
	}
	forge("negative size", -1, "negative geometry", func(m *Manifest) { m.Shards[1].Size = -1 })
	forge("negative raw", -1, "negative geometry", func(m *Manifest) { m.Shards[1].RawSize = -1 })
	forge("rank out of range", -1, "names rank 7", func(m *Manifest) { m.Shards[0].Rank = 7 })
	forge("negative ranks", -1, "declares -1 ranks", func(m *Manifest) { m.Ranks = -1; m.Shards = nil })
	forge("shard/rank mismatch", -1, "lists 2 shards", func(m *Manifest) { m.Shards = m.Shards[:2] })
	// An absurd RawSize must error after bounded work (the decompressed
	// stream won't match), never allocate the declared size.
	forge("absurd raw size", 1, "epoch 0 rank 1: raw size mismatch", func(m *Manifest) { m.Shards[1].RawSize = 1 << 50 })
	// An entry whose bytes live in another epoch, or a partial object that
	// draws on another one, is a reference into an epoch the store does not
	// hold — the chain check every store read runs.
	elsewhere := func(m *Manifest) {
		m.Epoch = 1
		for i := range m.Shards {
			m.Shards[i].RefEpoch = 1
		}
	}
	forge("entry references another epoch", 1, "epoch 1 rank 1 references epoch 0, which is not sealed", func(m *Manifest) {
		elsewhere(m)
		m.Shards[1].RefEpoch = 0
	})
	forge("partial object", 1, "epoch 1 rank 1 references epoch 0, which is not sealed", func(m *Manifest) {
		elsewhere(m)
		si := &m.Shards[1]
		si.RawFormat, si.BaseEpoch, si.PageSize, si.PageSums = RawFormatPageDelta, 0, si.RawSize, []uint32{0}
	})
	// A partial object in the retired layout — a gob header in front of its
	// extents, counted in its stored stream — fails closed at validation.
	raw := man.Shards[1].RawSize
	forge("headed partial object", -1, fmt.Sprintf("rank 1 partial shard stores %d stream bytes but its own extents cover %d", 137+raw, raw),
		func(m *Manifest) {
			elsewhere(m)
			si := &m.Shards[1]
			si.RawFormat, si.BaseEpoch, si.PageSize, si.PageSums = RawFormatPageDelta, 0, si.RawSize, []uint32{0}
			si.DeltaPages, si.DeltaRawSize = []int32{0}, 137+si.RawSize
		})
	// An epoch sealed on the retired burst-buffer tier fails closed instead
	// of restarting priced as a parallel-filesystem read.
	forge("retired storage tier", -1, "epoch 0 sealed on storage tier 1, which this build does not model",
		func(m *Manifest) { m.Tier = 1 })
	// An entry that lies about its object's stored byte count is refused by
	// the read that counts them, and priced by no restart.
	size := man.Shards[1].Size
	forge("lying stored size", 1, fmt.Sprintf("epoch 0 rank 1: shard corrupted (%d stored bytes, want %d)", size, size+1000),
		func(m *Manifest) { m.Shards[1].Size += 1000 })
	// A page-delta entry whose one page — dirty, so it draws on no other
	// epoch — is 1 TiB long: the merge would buffer a page of that size.
	forge("1 TiB page", -1, fmt.Sprintf("rank 1 shard has page size %d", int64(1<<40)), func(m *Manifest) {
		elsewhere(m)
		si := &m.Shards[1]
		si.RawFormat, si.BaseEpoch, si.PageSums, si.DeltaPages = RawFormatPageDelta, 0, []uint32{0}, []int32{0}
		si.PageSize, si.RawSize, si.DeltaRawSize = 1<<40, 1<<40, 1<<40
	})
	// A sealed body that goes on after the manifest — here a second copy of
	// its value message, which a decoder stopping at the first never reads.
	body := rec[20:]
	split, end := scanRecord(body)
	if end != len(body) {
		t.Fatal("a sealed manifest is not one whole gob record")
	}
	value := body[split:]
	body = append(slices.Clone(body), value...)
	long := binary.LittleEndian.AppendUint32(slices.Clone(manifestRecordMagic), uint32(len(body)))
	long = append(binary.LittleEndian.AppendUint64(long, Sum64(body)), body...)
	add("record", "gob after the manifest", 0, long, objects, -1,
		fmt.Sprintf("manifest record has %d bytes after its manifest", len(value)))
	return rec, objects, list
}

// runEpochDamage holds every row of one kind to its verdict, through every
// way an epoch is read.
func runEpochDamage(t *testing.T, kind string) {
	const n = 5
	rec, objects, list := epochDamageList(t, n)
	pristine := installEpoch(0, rec, objects)
	if img, err := LoadJobImage(pristine, 0); err != nil || !reflect.DeepEqual(img, testJobImage(n)) {
		t.Fatalf("pristine epoch did not load back: %v", err)
	}
	if faults, err := VerifyStore(pristine); err != nil || len(faults) != 0 {
		t.Fatalf("pristine epoch has faults %v (err %v)", faults, err)
	}
	ran := 0
	for _, c := range list {
		if c.kind != kind {
			continue
		}
		ran++
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s: a read panicked: %v", c.name, p)
				}
			}()
			store := installEpoch(c.epoch, c.rec, c.objects)
			if _, err := LoadJobImage(store, c.epoch); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: load error %v does not say %q", c.name, err, c.want)
			}
			faults, err := VerifyStore(store)
			if err != nil {
				t.Fatalf("%s: verify failed structurally: %v", c.name, err)
			}
			if len(faults) != 1 || faults[0].Rank != c.rank {
				t.Fatalf("%s: damage to rank %d attributed to %v", c.name, c.rank, faults)
			}
			if c.rank < 0 && !strings.Contains(faults[0].Err.Error(), c.want) {
				t.Fatalf("%s: verify says %v, not %q", c.name, faults[0].Err, c.want)
			}
			for r := -1; r <= n; r++ {
				_, err := ExtractRankFromStore(store, c.epoch, r)
				_, rawErr := ExtractRawFromStore(store, c.epoch, r)
				if healthy := c.rank >= 0 && r >= 0 && r < n && r != c.rank; healthy != (err == nil) || healthy != (rawErr == nil) {
					t.Fatalf("%s: extract of rank %d: %v; raw extract: %v", c.name, r, err, rawErr)
				}
			}
		}()
	}
	if ran == 0 {
		t.Fatalf("the damage list has no %q rows", kind)
	}
}

// TestTruncatedImagesError: every truncation of an epoch's record — densely
// through its header, at a stride through its body — is refused as a
// truncation, and a truncated or missing object is attributed to its rank.
func TestTruncatedImagesError(t *testing.T) { runEpochDamage(t, "truncated") }

// TestShardCorruptionAttributed: a flipped byte in rank k's object, or bytes
// past its end, fails the load and is attributed to exactly rank k while
// every other rank still extracts; the same in the record is structural:
// no shard to blame.
func TestShardCorruptionAttributed(t *testing.T) { runEpochDamage(t, "flipped") }

// TestHostileManifestsError: internally-checksummed records that lie about
// geometry, stored sizes or where the bytes live are refused by validation,
// by the chain check or by the read that counts the bytes — never trusted
// into slicing or allocation.
func TestHostileManifestsError(t *testing.T) { runEpochDamage(t, "record") }

// TestRankNotInManifest: extraction of a rank the manifest does not list
// must error.
func TestRankNotInManifest(t *testing.T) {
	store, _ := commitTestImage(t, testJobImage(3))
	if _, err := ExtractRankFromStore(store, 0, 17); err == nil || !strings.Contains(err.Error(), "no rank 17") {
		t.Fatalf("extract of missing rank: %v", err)
	}
}

// FuzzOpenImage: whatever bytes a 3-rank store epoch holds, under whatever
// epoch number, load and verify come back as an error or a decoded job —
// never a panic, and never an allocation beyond a small multiple of what
// the objects and their (validated) manifest state. Seeded with the damage
// list, so the fuzzer starts from epochs that already get past the record.
// The rows keep their order: the seed numbers are test names.
func FuzzOpenImage(f *testing.F) {
	rec, objects, list := epochDamageList(f, 3)
	add := func(c epochDamage) { f.Add(uint8(c.epoch), c.rec, c.objects[0], c.objects[1], c.objects[2]) }
	f.Add(uint8(0), rec, objects[0], objects[1], objects[2])
	// Rows added to the list after the half-object seed follow it.
	late := map[string]bool{"lying stored size": true, "1 TiB page": true}
	for _, c := range list {
		if c.kind != "truncated" && !late[c.name] {
			add(c)
		}
	}
	f.Add(uint8(0), rec, objects[0], objects[1][:len(objects[1])/2], objects[2])
	for _, c := range list {
		if late[c.name] {
			add(c)
		}
	}
	f.Fuzz(func(t *testing.T, key uint8, rec, o0, o1, o2 []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		epoch, stated := int(key), int64(len(rec)+len(o0)+len(o1)+len(o2))
		store := installEpoch(epoch, rec, [][]byte{o0, o1, o2})
		man, err := store.GetManifest(epoch)
		if err == nil {
			for i := range man.Shards {
				if stated += man.Shards[i].RawSize; stated > 64<<20 || stated < 0 {
					t.Skip() // a manifest that honestly states gigabytes may allocate them
				}
			}
		}
		faults, verr := VerifyStore(store)
		img, lerr := LoadJobImage(store, epoch)
		switch {
		case verr != nil:
			t.Fatalf("verify failed structurally on a held epoch: %v", verr)
		case err != nil && (len(faults) != 1 || faults[0].Rank != -1 || lerr == nil):
			t.Fatalf("an unreadable record (%v) gave faults %v and load %v", err, faults, lerr)
		case (len(faults) == 0) != (lerr == nil):
			t.Fatalf("verify found %v but load said %v", faults, lerr)
		case lerr == nil && len(img.Images) != man.Ranks:
			t.Fatalf("clean load returned %d of %d ranks", len(img.Images), man.Ranks)
		}
		runtime.ReadMemStats(&after)
		// Manifest decodes, a flate window per shard and a few copy buffers
		// are spent whatever the input; past that fixed floor, memory follows
		// the stated sizes.
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), 3*stated+(4<<20); got > limit {
			t.Fatalf("verify/load allocated %d bytes for an epoch stating %d (limit %d; record: %v)", got, stated, limit, err)
		}
	})
}

// TestManifestRecordRoundTripAndCorruption: the store's standalone manifest
// records must round-trip and reject truncation/corruption.
func TestManifestRecordRoundTrip(t *testing.T) {
	man := &Manifest{
		Algorithm: "cc", Ranks: 2, PPN: 2, CaptureVT: 3.25,
		Version: ManifestV3, Epoch: 4, Parent: 2,
		Shards: []ShardInfo{
			{Rank: 0, Size: 10, RawSize: 20, Checksum: 5, RefEpoch: 1, ClockVT: 3.0, RawSum: 9, RawFormat: RawFormatChunked},
			{Rank: 1, Size: 11, RawSize: 21, Checksum: 6, RefEpoch: 4, ClockVT: 3.25, RawSum: 8, RawFormat: RawFormatChunked},
		},
	}
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifestRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 4 || got.Parent != 2 || got.Shards[0].RefEpoch != 1 || got.Shards[1].ClockVT != 3.25 {
		t.Fatalf("record round trip lost fields: %+v", got)
	}
	for _, l := range []int{0, 7, 19, len(rec) - 1} {
		if _, err := DecodeManifestRecord(rec[:l]); err == nil {
			t.Fatalf("truncated record (%d bytes) decoded", l)
		}
	}
	bad := append([]byte(nil), rec...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := DecodeManifestRecord(bad); err == nil {
		t.Fatal("corrupted record decoded")
	}
	// A record whose shard table references a future epoch is invalid.
	evil := *man
	evil.Shards = append([]ShardInfo(nil), man.Shards...)
	evil.Shards[0].RefEpoch = 9
	rec2, err := EncodeManifestRecord(&evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifestRecord(rec2); err == nil {
		t.Fatal("future-epoch reference accepted")
	}
}
