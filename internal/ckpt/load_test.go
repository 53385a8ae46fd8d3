package ckpt

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestConcurrentLoadMatchesSerial: the inflate states and read-ahead buffers
// the read path draws from pools are never shared between two shards. A
// 64-rank epoch whose entries are half page-delta merges (own object plus a
// base source, two decoders each) and half references to full shards is
// loaded by four LoadJobImage calls at once, each fanning out at GOMAXPROCS
// 4, and every rank image must equal a serial load's. Run under -race.
func TestConcurrentLoadMatchesSerial(t *testing.T) {
	const ranks = 64
	store := NewMemStore()
	img := pagedImage(ranks, 11)
	parent, _ := commitPaged(t, store, 0, nil, img)
	for r := 0; r < ranks; r += 2 {
		img.Images[r].App[5000+r] ^= 0x5a
	}
	man, _ := commitPaged(t, store, 1, parent, img)
	partial := 0
	for i := range man.Shards {
		if man.Shards[i].Partial() {
			partial++
		}
	}
	if partial != ranks/2 {
		t.Fatalf("epoch 1 holds %d partial entries, want %d", partial, ranks/2)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := LoadJobImage(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img, serial)

	runtime.GOMAXPROCS(4)
	const loaders = 4
	loaded := make([]*JobImage, loaders)
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			loaded[l], errs[l] = LoadJobImage(store, 1)
		}(l)
	}
	wg.Wait()
	for l := range loaded {
		if errs[l] != nil {
			t.Fatalf("concurrent load %d: %v", l, errs[l])
		}
		for r := range serial.Images {
			if !reflect.DeepEqual(loaded[l].Images[r], serial.Images[r]) {
				t.Fatalf("concurrent load %d: rank %d differs from the serial load", l, r)
			}
		}
	}
}

// TestConcurrentCommitMatchesSerial is the write side's twin: the pooled
// compressors (and chunk buffers) the commit path draws are never shared
// between two shards. A 64-rank chain — an epoch of full shards, from under a
// block to several blocks of half-compressible state each, then an epoch of
// page deltas — is committed into four stores at once, each CommitStreamed
// fanning out at GOMAXPROCS 4, and every stored object must be byte-equal to
// the one a serial commit stores. Run under -race.
func TestConcurrentCommitMatchesSerial(t *testing.T) {
	const ranks = 64
	base := pagedImage(ranks, 11)
	for r := range base.Images {
		app := make([]byte, 16<<10+r*3000)
		s := uint64(r)*0x9e3779b97f4a7c15 + 1
		for i := range app {
			if i%128 < 64 { // 64 bytes of noise, 64 of one byte, like the benchmark's fat ranks
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
			}
			app[i] = byte(s)
		}
		base.Images[r].App = app
	}
	next := *base
	next.Images = append([]RankImage(nil), base.Images...)
	for r := 0; r < ranks; r += 2 {
		next.Images[r].App = bytes.Clone(next.Images[r].App)
		next.Images[r].App[5000+r] ^= 0x5a
	}
	commitChain := func() (Store, error) {
		store := NewMemStore()
		var parent *Manifest
		for epoch, img := range []*JobImage{base, &next} {
			sums, err := HashCapturePaged(img, testPageSize)
			if err != nil {
				return nil, err
			}
			if parent, _, err = CommitStreamed(store, epoch, parent, img, sums, nil); err != nil {
				return nil, err
			}
		}
		return store, nil
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := commitChain()
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(4)
	const committers = 4
	stores := make([]Store, committers)
	errs := make([]error, committers)
	var wg sync.WaitGroup
	for c := range stores {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stores[c], errs[c] = commitChain()
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("concurrent commit %d: %v", c, err)
		}
	}
	for epoch := 0; epoch <= 1; epoch++ {
		man, err := serial.GetManifest(epoch)
		if err != nil {
			t.Fatal(err)
		}
		own := 0
		for _, sh := range man.Shards {
			if sh.RefEpoch != epoch {
				continue
			}
			own++
			want, err := serial.GetShard(epoch, sh.Rank)
			if err != nil {
				t.Fatal(err)
			}
			for c, store := range stores {
				got, err := store.GetShard(epoch, sh.Rank)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("concurrent commit %d: epoch %d rank %d holds %d bytes, err %v; the serial commit stored %d and they differ",
						c, epoch, sh.Rank, len(got), err, len(want))
				}
			}
		}
		if want := ranks >> epoch; own != want {
			t.Fatalf("epoch %d stores %d objects of its own, want %d", epoch, own, want)
		}
	}
}

// skipUnderRace skips an allocation count: under the race detector
// sync.Pool drops a share of what it is given.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a share of what it is given")
			}
		}
	}
}

// smallShardEpoch commits an n-rank epoch of ~2 KB shards and returns its
// store.
func smallShardEpoch(t *testing.T, n int) Store {
	t.Helper()
	img := testImage(n, 3)
	for r := range img.Images {
		app := make([]byte, 2000)
		for i := range app {
			app[i] = byte(r) + byte(i*i>>3)
		}
		img.Images[r].App = app
	}
	store := NewMemStore()
	if _, _, err := CommitCapture(store, 0, nil, img); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestLoadAllocsPerShard: loading many small shards pays the codec, buffer
// and gob decoder state once, not per shard. Two epoch sizes give the cost
// of one more shard: the decoded image and a few small objects around it —
// 13 allocations and 3.3 KB for a 2 KB shard on go1.24. Before the inflate
// state and the read-ahead buffer were pooled, one more shard also cost a
// decompressor, its window and two buffers (~68 KB, ~60 allocations); before
// the header decoders were primed (gobCodec), a fresh gob decoder, the type
// exchange and a compiled engine (~340 allocations, ~14 KB).
func TestLoadAllocsPerShard(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a serial fan-out: no goroutines in the count
	measure := func(run func()) (allocs float64, size uint64) {
		allocs = testing.AllocsPerRun(10, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return allocs, after.TotalAlloc - before.TotalAlloc
	}
	load := func(n int) (float64, uint64) {
		store := smallShardEpoch(t, n)
		return measure(func() {
			if _, err := LoadJobImage(store, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	a32, b32 := load(32)
	a64, b64 := load(64)
	shardAllocs, shardBytes := (a64-a32)/32, float64(b64-b32)/32

	t.Logf("one more 2 KB shard: %.1f allocations, %.0f bytes", shardAllocs, shardBytes)
	if shardAllocs > 20 {
		t.Errorf("one more shard takes %.1f allocations to load, want <= 20", shardAllocs)
	}
	if limit := 2000.0 + 2048; shardBytes > limit {
		t.Errorf("one more shard allocates %.0f bytes to load, want <= %.0f (the image + 2 KiB)", shardBytes, limit)
	}
}
