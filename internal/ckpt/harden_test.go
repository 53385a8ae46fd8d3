package ckpt

// Hardening of the one decode path a checkpoint FILE has: a packed image
// opens as a store (OpenImage) and everything behind that is the store's
// own load and verify. One damage list states what every kind of damage
// must produce — an error that names what is wrong, attributed to the rank
// whose object was hit, never a panic or an allocation sized by a lie.
// FuzzOpenImage explores around the same list.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// imageDamage is one way to damage a packed image.
type imageDamage struct {
	kind, name string
	data       []byte
	// rank is the shard the damage hit: the file still opens, VerifyStore
	// faults exactly this rank and every other rank still extracts. -1 when
	// the damage is to the framing, the record or the size accounting, and
	// OpenImage itself must refuse the file.
	rank int
	want string // what the decode error must say
}

// packImage frames a manifest record and an object section as Encode does.
func packImage(rec, objects []byte) []byte {
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), imageMagic...), uint32(len(rec)))
	return append(append(out, rec...), objects...)
}

// imageDamageList is THE damage list over a packed image of n ranks (n >= 3),
// returned with the pristine file. Kinds: "truncated" — at every section
// boundary, at every length through the header, and at a stride through
// record and objects; "flipped" — one byte in the magic, the length word,
// the record and the middle of EACH rank's object, plus trailing garbage;
// "record" — a re-sealed (internally checksummed) record that lies: hostile
// geometry, sizes that do not add up to the bytes present, an entry that
// references another epoch or is a partial object drawing on one, a partial
// object in the retired headed layout, an epoch on a retired storage tier,
// gob bytes after the manifest.
func imageDamageList(t testing.TB, n int) (pristine []byte, list []imageDamage) {
	t.Helper()
	full, err := testJobImage(n).Encode()
	if err != nil {
		t.Fatal(err)
	}
	man, err := DecodeManifest(full)
	if err != nil {
		t.Fatal(err)
	}
	objectsAt := 12 + int(binary.LittleEndian.Uint32(full[8:12]))
	add := func(kind, name string, data []byte, rank int, want string) {
		list = append(list, imageDamage{kind, name, data, rank, want})
	}

	cuts := map[int]bool{0: true, 8: true, 12: true, objectsAt: true, len(full) - 1: true}
	for l := 0; l < 64; l++ {
		cuts[l] = true
	}
	for l := 64; l < len(full); l += len(full)/97 + 1 {
		cuts[l] = true
	}
	flip := func(at int, mask byte) []byte {
		bad := append([]byte(nil), full...)
		bad[at] ^= mask
		return bad
	}
	add("flipped", "magic", flip(3, 0xFF), -1, "bad magic")
	add("flipped", "length word", flip(8, 0x01), -1, "manifest record")
	add("flipped", "record", flip((12+objectsAt)/2, 0xFF), -1, "manifest record corrupted")
	at := objectsAt
	for r := range man.Shards {
		size := int(man.Shards[r].Size)
		cuts[at] = true
		add("flipped", fmt.Sprintf("rank %d object", r), flip(at+size/2, 0xFF), r,
			fmt.Sprintf("epoch 0 rank %d: shard corrupted (checksum ", r))
		at += size
	}
	add("flipped", "trailing garbage", append(append([]byte(nil), full...), 0xEE, 0xEE), -1,
		"image has 2 trailing bytes")
	for l := range cuts {
		add("truncated", fmt.Sprintf("to %d of %d bytes", l, len(full)), full[:l], -1, "truncated")
	}

	forge := func(name string, rank int, want string, mutate func(m *Manifest)) {
		m := *man
		m.Shards = append([]ShardInfo(nil), man.Shards...)
		mutate(&m)
		rec, err := EncodeManifestRecord(&m)
		if err != nil {
			t.Fatal(err)
		}
		add("record", name, packImage(rec, full[objectsAt:]), rank, want)
	}
	objects := int64(len(full) - objectsAt)
	forge("negative size", -1, "negative geometry", func(m *Manifest) { m.Shards[1].Size = -1 })
	forge("negative raw", -1, "negative geometry", func(m *Manifest) { m.Shards[1].RawSize = -1 })
	forge("size past end", -1, fmt.Sprintf("declares %d bytes of shard objects, %d follow", objects+objects+1-man.Shards[0].Size, objects),
		func(m *Manifest) { m.Shards[0].Size = objects + 1 })
	forge("size short", -1, fmt.Sprintf("image has 1 trailing bytes (manifest declares %d bytes of shard objects, %d follow", objects-1, objects),
		func(m *Manifest) { m.Shards[2].Size-- })
	forge("sizes overflow", -1, "shard sizes overflow", func(m *Manifest) { m.Shards[0].Size, m.Shards[1].Size = 1<<62, 1<<62 })
	forge("rank out of range", -1, "names rank 7", func(m *Manifest) { m.Shards[0].Rank = 7 })
	forge("negative ranks", -1, "declares -1 ranks", func(m *Manifest) { m.Ranks = -1; m.Shards = nil })
	forge("shard/rank mismatch", -1, "lists 2 shards", func(m *Manifest) { m.Shards = m.Shards[:2] })
	// An absurd RawSize must error after bounded work (the decompressed
	// stream won't match), never allocate the declared size.
	forge("absurd raw size", 1, "epoch 0 rank 1: raw size mismatch", func(m *Manifest) { m.Shards[1].RawSize = 1 << 50 })
	// A file is one epoch: an entry whose bytes live in another one, or a
	// partial object that draws on another one, is a reference into an
	// epoch the opened store does not hold — the chain check every store
	// read runs, nothing specific to files.
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
	// Last, so the fuzz seeds drawn from the rows above keep their numbers.
	// An epoch sealed on the retired burst-buffer tier fails closed instead
	// of restarting priced as a parallel-filesystem read.
	forge("retired storage tier", -1, "epoch 0 sealed on storage tier 1, which this build does not model",
		func(m *Manifest) { m.Tier = 1 })
	// A sealed body that goes on after the manifest — here a second copy of
	// its value message, which a decoder stopping at the first never reads.
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		t.Fatal(err)
	}
	body := rec[20:]
	split, end := scanRecord(body)
	if end != len(body) {
		t.Fatal("a sealed manifest is not one whole gob record")
	}
	value := body[split:]
	body = append(append([]byte(nil), body...), value...)
	rec = binary.LittleEndian.AppendUint32(append([]byte(nil), manifestRecordMagic...), uint32(len(body)))
	rec = append(binary.LittleEndian.AppendUint64(rec, Sum64(body)), body...)
	add("record", "gob after the manifest", packImage(rec, full[objectsAt:]), -1,
		fmt.Sprintf("manifest record has %d bytes after its manifest", len(value)))
	return full, list
}

// runImageDamage holds every row of one kind to its verdict, through every
// way a file is read.
func runImageDamage(t *testing.T, kind string) {
	const n = 5
	full, list := imageDamageList(t, n)
	if img, err := DecodeJobImage(full); err != nil || img == nil {
		t.Fatalf("pristine image did not decode: %v", err)
	}
	if faults, err := VerifyStore(openTestImage(t, full)); err != nil || len(faults) != 0 {
		t.Fatalf("pristine image has faults %v (err %v)", faults, err)
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
					t.Fatalf("%s: decode panicked on %d bytes: %v", c.name, len(c.data), p)
				}
			}()
			if _, err := DecodeJobImage(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: decode error %v does not say %q", c.name, err, c.want)
			}
			store, err := OpenImage(c.data)
			if _, merr := DecodeManifest(c.data); (merr == nil) != (err == nil) {
				t.Fatalf("%s: OpenImage says %v, DecodeManifest says %v", c.name, err, merr)
			}
			if c.rank < 0 {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%s: OpenImage error %v does not say %q", c.name, err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: damage inside rank %d's shard failed the whole file: %v", c.name, c.rank, err)
			}
			faults, err := VerifyStore(store)
			if err != nil {
				t.Fatalf("%s: verify failed structurally: %v", c.name, err)
			}
			if len(faults) != 1 || faults[0].Rank != c.rank {
				t.Fatalf("%s: damage to rank %d attributed to %v", c.name, c.rank, faults)
			}
			epoch, err := LatestEpoch(store)
			if err != nil {
				t.Fatal(err)
			}
			for r := -1; r <= n; r++ {
				_, err := ExtractRankFromStore(store, epoch, r)
				if healthy := r >= 0 && r < n && r != c.rank; healthy != (err == nil) {
					t.Fatalf("%s: extract of rank %d: %v", c.name, r, err)
				}
			}
		}()
	}
	if ran == 0 {
		t.Fatalf("the damage list has no %q rows", kind)
	}
}

// TestTruncatedImagesError: every truncation of a valid image — at each
// section boundary, densely through the header, at a stride through record
// and objects — is refused as a truncation.
func TestTruncatedImagesError(t *testing.T) { runImageDamage(t, "truncated") }

// TestShardCorruptionAttributed: a flipped byte in rank k's object fails the
// decode and is attributed to exactly rank k, every other rank still
// extracts, and a flip in the framing or the record — or bytes past the end
// — is structural: no shard to blame.
func TestShardCorruptionAttributed(t *testing.T) { runImageDamage(t, "flipped") }

// TestHostileManifestsError: internally-checksummed records that lie about
// geometry, sizes or where the bytes live are refused by validation, by the
// size accounting or by the chain check — never trusted into slicing or
// allocation.
func TestHostileManifestsError(t *testing.T) { runImageDamage(t, "record") }

// TestRankNotInManifest: extraction of a rank the manifest does not list
// must error.
func TestRankNotInManifest(t *testing.T) {
	blob, err := testJobImage(3).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractRankFromStore(openTestImage(t, blob), 0, 17); err == nil || !strings.Contains(err.Error(), "no rank 17") {
		t.Fatalf("extract of missing rank: %v", err)
	}
}

// FuzzOpenImage: whatever bytes a file holds, open → verify → load comes
// back as an error or a decoded job — never a panic, and never an
// allocation beyond a small multiple of what the file and its (validated)
// manifest state. Seeded with the damage list, so the fuzzer starts from
// files that already get past the framing.
func FuzzOpenImage(f *testing.F) {
	full, list := imageDamageList(f, 3)
	f.Add(full)
	for _, c := range list {
		if c.kind != "truncated" {
			f.Add(c.data)
		}
	}
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stated := int64(len(data))
		store, err := OpenImage(data)
		if err == nil {
			epoch, err := LatestEpoch(store)
			if err != nil {
				t.Fatalf("an opened image holds no epoch: %v", err)
			}
			man, err := store.GetManifest(epoch)
			if err != nil {
				t.Fatalf("an opened image's manifest does not decode: %v", err)
			}
			for i := range man.Shards {
				if stated += man.Shards[i].RawSize; stated > 64<<20 || stated < 0 {
					t.Skip() // a manifest that honestly states gigabytes may allocate them
				}
			}
			faults, verr := VerifyStore(store)
			img, lerr := LoadJobImage(store, epoch)
			if verr != nil {
				t.Fatalf("verify failed structurally on an opened image: %v", verr)
			}
			if (len(faults) == 0) != (lerr == nil) {
				t.Fatalf("verify found %v but load said %v", faults, lerr)
			}
			if lerr == nil && len(img.Images) != man.Ranks {
				t.Fatalf("clean load returned %d of %d ranks", len(img.Images), man.Ranks)
			}
		}
		runtime.ReadMemStats(&after)
		// Manifest decodes, a flate window per shard and a few copy buffers
		// are spent whatever the input; past that fixed floor, memory follows
		// the stated sizes.
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), 3*stated+(4<<20); got > limit {
			t.Fatalf("open/verify/load allocated %d bytes for a file stating %d (limit %d; open: %v)", got, stated, limit, err)
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
