package ckpt

// Tests for a committed epoch and the shard streams under it: round trip,
// determinism of the parallel encoder, manifest inspection, single-rank
// extraction, serial/parallel capture equivalence, and the streaming shard
// writer and decoder. What damage to a store epoch must produce is
// harden_test.go's table.

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// testJobImage builds a representative image: mixed park kinds, pending
// collective and receive descriptors, in-flight messages, uneven payloads.
func testJobImage(ranks int) *JobImage {
	ji := &JobImage{
		Algorithm: "cc", Ranks: ranks, PPN: 2, CaptureVT: 1.25,
		Images: make([]RankImage, ranks),
	}
	for r := 0; r < ranks; r++ {
		app := make([]byte, 64+r*17)
		for i := range app {
			app[i] = byte(r + i)
		}
		ri := RankImage{Rank: r, App: app, Proto: []byte{byte(r), 2, 3}, ClockVT: 1.0 + float64(r)/8}
		switch r % 3 {
		case 0:
			ri.Desc = Descriptor{
				Kind: ParkPreCollective,
				Coll: &CollDesc{CommVID: 1, Kind: 3, Root: 2, InBufID: "x", OutBufID: "x"},
				Recvs: []RecvDesc{
					{CommVID: 0, Src: 1, Tag: 7, BufID: "halo", Off: 8, Len: 16},
				},
			}
			ri.Inflight = []mpi.InflightSnapshot{
				{CommID: 1, SrcComm: 1, Tag: 7, Data: []byte("msg")},
			}
		case 1:
			ri.Desc = Descriptor{
				Kind: ParkPreCollective,
				Coll: &CollDesc{CommVID: 0, Kind: 1, Bench: true, VirtSize: 0},
			}
		default:
			ri.Desc = Descriptor{Kind: ParkDone}
		}
		ji.Images[r] = ri
	}
	return ji
}

// commitTestImage commits ji as epoch 0 of a fresh MemStore.
func commitTestImage(t testing.TB, ji *JobImage) (*MemStore, *Manifest) {
	t.Helper()
	store := NewMemStore()
	man, _, err := CommitCapture(store, 0, nil, ji)
	if err != nil {
		t.Fatal(err)
	}
	return store, man
}

// flateBlob compresses raw the way the default codec stores a shard.
func flateBlob(t testing.TB, raw []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := FlateCodec(0).NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// readFullShard reads blob as rank's flate-coded full-shard object through
// the store's own extraction: the object sits in a one-epoch MemStore whose
// manifest entry states the blob's length, rawSize and sum.
func readFullShard(t testing.TB, rank int, blob []byte, rawSize int64, sum uint64) (*RankImage, error) {
	t.Helper()
	man := &Manifest{Algorithm: "cc", Ranks: rank + 1, PPN: 1, Version: ManifestV3, Shards: make([]ShardInfo, rank+1)}
	objects := make([][]byte, rank+1)
	for i := range man.Shards {
		man.Shards[i] = ShardInfo{Rank: i, Size: int64(len(blob)), Checksum: sum, RawSize: rawSize,
			RawFormat: RawFormatChunked, CodecID: CodecFlate}
		objects[i] = blob
	}
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		t.Fatal(err)
	}
	return ExtractRankFromStore(installEpoch(0, rec, objects), 0, rank)
}

// TestImageRoundTrip: a committed image loads back to what was committed.
func TestImageRoundTrip(t *testing.T) {
	ji := testJobImage(6)
	store, _ := commitTestImage(t, ji)
	got, err := LoadJobImage(store, 0)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, ji) {
		t.Fatalf("round trip changed the image:\ngot  %+v\nwant %+v", got, ji)
	}
	if got.Algorithm != "cc" || got.Ranks != 6 || got.CaptureVT != 1.25 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if c := got.Images[1].Desc.Coll; c == nil || !c.Bench {
		t.Fatalf("bench descriptor lost: %+v", got.Images[1].Desc)
	}
}

// TestEncodeDeterministic: the parallel encoder must store identical bytes
// run to run — every shard object and the manifest record, whatever the
// worker scheduling.
func TestEncodeDeterministic(t *testing.T) {
	ji := testJobImage(16)
	a, _ := commitTestImage(t, ji)
	for i := 0; i < 4; i++ {
		if b, _ := commitTestImage(t, ji); !reflect.DeepEqual(a.epochs, b.epochs) {
			t.Fatalf("commit attempt %d stored different bytes", i)
		}
	}
}

// TestManifestAndShardRange: the manifest is readable without touching
// shard data, and its shard table describes every object the epoch holds —
// one full shard a rank, of exactly its entry's size and checksum, and
// nothing else.
func TestManifestAndShardRange(t *testing.T) {
	ji := testJobImage(5)
	ji.PaddedBytesPerRank = 1234
	store, _ := commitTestImage(t, ji)
	man, err := store.GetManifest(0)
	if err != nil {
		t.Fatal(err)
	}
	if man.Algorithm != "cc" || man.Ranks != 5 || man.PPN != 2 ||
		man.CaptureVT != 1.25 || man.PaddedBytesPerRank != 1234 {
		t.Fatalf("manifest header mismatch: %+v", man)
	}
	if man.Epoch != 0 || man.Parent != -1 || len(man.Shards) != 5 {
		t.Fatalf("committed epoch is %d (parent %d) with %d shards, want a parentless epoch 0 with 5", man.Epoch, man.Parent, len(man.Shards))
	}
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(store.epochs[0][manifestSlot], rec) {
		t.Fatal("the epoch's manifest object is not its manifest's record")
	}
	for i, s := range man.Shards {
		if s.Rank != i || s.RefEpoch != 0 || s.Partial() {
			t.Fatalf("shard %d is rank %d stored in epoch %d (partial %v), want a full shard of its own epoch", i, s.Rank, s.RefEpoch, s.Partial())
		}
		if s.Size <= 0 || s.RawSize <= 0 {
			t.Fatalf("shard %d has degenerate sizes: %+v", i, s)
		}
		object, err := store.GetShard(0, i)
		if err != nil || int64(len(object)) != s.Size || Sum64(object) != s.Checksum {
			t.Fatalf("rank %d's object is %d bytes (err %v), not the entry's %d", i, len(object), err, s.Size)
		}
	}
	if got := len(store.epochs[0]); got != len(man.Shards)+1 {
		t.Fatalf("the epoch holds %d objects, want %d shards and the manifest", got, len(man.Shards))
	}
}

func TestExtractRank(t *testing.T) {
	ji := testJobImage(6)
	store, _ := commitTestImage(t, ji)
	for _, r := range []int{0, 3, 5} {
		ri, err := ExtractRankFromStore(store, 0, r)
		if err != nil {
			t.Fatalf("extract rank %d: %v", r, err)
		}
		if !reflect.DeepEqual(*ri, ji.Images[r]) {
			t.Fatalf("extract rank %d mismatch:\ngot  %+v\nwant %+v", r, *ri, ji.Images[r])
		}
	}
	if _, err := ExtractRankFromStore(store, 0, 99); err == nil {
		t.Fatal("extract accepted a nonexistent rank")
	}
}

// TestCaptureSerialParallelEquivalent: the coordinator must build the same
// image regardless of the capture fan-out width, which follows GOMAXPROCS.
func TestCaptureSerialParallelEquivalent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	capture := func(workers int) *JobImage {
		runtime.GOMAXPROCS(workers)
		const n = 16
		w := mpi.NewWorld(n, netmodel.New(netmodel.PerlmutterLike(), 4))
		c, _ := NewCoordinator(w, nil) // no plan: cannot fail
		a := &stubAlgo{quiesced: true}
		c.SetAlgorithm(a)
		for r := 0; r < n; r++ {
			rank := r
			c.RegisterRank(r, RankHooks{
				AppSnapshotTo: func(w io.Writer) error {
					buf := make([]byte, 128)
					for i := range buf {
						buf[i] = byte(rank * i)
					}
					_, err := w.Write(buf)
					return err
				},
				ProtoSnapshot: func() ([]byte, error) { return []byte{byte(rank)}, nil },
				ClockVT:       func() float64 { return float64(rank) },
				SetClock:      func(vt float64) {},
				PendingRecvs:  func() []RecvDesc { return nil },
			})
		}
		c.RequestCheckpoint(1.0)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c.ParkUntil(rank, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay })
			}(r)
		}
		wg.Wait()
		img, _, err := c.Result()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	serial, parallel := capture(1), capture(8)
	// CaptureVT and per-rank payloads must agree; host-time stats differ by
	// construction, but they live outside the image.
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel captures differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// ... and so the same stored bytes, object for object.
	a, _ := commitTestImage(t, serial)
	b, _ := commitTestImage(t, parallel)
	if !reflect.DeepEqual(a.epochs, b.epochs) {
		t.Fatal("serial and parallel captures commit different objects")
	}
}

// memSink is a minimal WriteCloser capturing a shard stream.
type memSink struct {
	bytes.Buffer
	closed bool
}

func (s *memSink) Close() error { s.closed = true; return nil }

// TestShardWriterStreamsIdentically: the streaming encoder's summary must
// agree byte-for-byte with what actually reached the sink, its raw identity
// must match the hash-only pass that keys the incremental differ, and the
// chunked stream must round-trip the rank image exactly (clock zeroed).
func TestShardWriterStreamsIdentically(t *testing.T) {
	ji := testJobImage(5)
	for r := range ji.Images {
		ri := &ji.Images[r]

		sink := &memSink{}
		sw, err := NewShardWriterCodec(ri.Rank, sink, FlateCodec(0), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Encode(ri, true); err != nil {
			t.Fatal(err)
		}
		sum, err := sw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !sink.closed {
			t.Fatal("shard writer did not close its store stream")
		}
		blob := sink.Bytes()
		if int64(len(blob)) != sum.Size || Sum64(blob) != sum.Checksum {
			t.Fatalf("rank %d: summary %+v disagrees with the %d streamed bytes", r, sum, len(blob))
		}

		// The writer no longer hashes the raw stream; the identity pass does,
		// over the same segment list. Hold the two to one set of bytes: what
		// the sink decompresses to must hash to the identity pass's answer.
		h, err := hashShard(ri, 0, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, wantSize := h.sum, h.stream.size
		raw, err := io.ReadAll(FlateCodec(0).NewReader(bytes.NewReader(blob)))
		if err != nil {
			t.Fatal(err)
		}
		if Sum64(raw) != wantSum || int64(len(raw)) != wantSize {
			t.Fatalf("rank %d: streamed raw identity (%x, %d) != hashed (%x, %d)",
				r, Sum64(raw), len(raw), wantSum, wantSize)
		}

		got, err := readFullShard(t, ri.Rank, blob, wantSize, sum.Checksum)
		if err != nil {
			t.Fatal(err)
		}
		want := *ri
		want.ClockVT = 0
		if got.Rank != want.Rank || got.ClockVT != 0 ||
			!bytes.Equal(got.App, want.App) || !bytes.Equal(got.Proto, want.Proto) ||
			!reflect.DeepEqual(got.Desc, want.Desc) || len(got.Inflight) != len(want.Inflight) {
			t.Fatalf("rank %d stream decode mismatch:\ngot  %+v\nwant %+v", r, got, &want)
		}
		for i := range want.Inflight {
			if !reflect.DeepEqual(got.Inflight[i], want.Inflight[i]) {
				t.Fatalf("rank %d in-flight %d mismatch: %+v vs %+v", r, i, got.Inflight[i], want.Inflight[i])
			}
		}
	}
}

// TestWholeGobShardsRejected: the whole-RankImage gob layout is retired and
// nothing writes it. Its bytes must fail as an attributed error when read as
// a full shard — never alias into a silent misread — and a manifest that
// names the format is refused at decode.
func TestWholeGobShardsRejected(t *testing.T) {
	clockless := testJobImage(3).Images[0]
	clockless.ClockVT = 0
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(&clockless); err != nil {
		t.Fatal(err)
	}
	blob, rawSize := flateBlob(t, raw.Bytes()), int64(raw.Len())
	if _, err := readFullShard(t, 0, blob, rawSize, Sum64(blob)); err == nil {
		t.Fatal("gob bytes decoded under the chunked format")
	}
	man := &Manifest{Ranks: 1, Version: ManifestV3, Shards: []ShardInfo{{Rank: 0, RawFormat: 0}}}
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifestRecord(rec); err == nil || !strings.Contains(err.Error(), "rank 0 shard declares unknown raw format 0") {
		t.Fatalf("manifest naming the gob format not rejected: %v", err)
	}
}

// TestChunkedHeaderStaysSmall: the whole point of the chunked layout is
// that only the header passes through gob — the raw stream's overhead over
// the payload bytes must stay constant-ish as the state grows, or encode
// memory is secretly scaling with the shard again.
func TestChunkedHeaderStaysSmall(t *testing.T) {
	ri := &RankImage{Rank: 0, App: make([]byte, 8<<20), Proto: []byte{1, 2}}
	h, err := hashShard(ri, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rawSize := h.stream.size
	payload := int64(len(ri.App) + len(ri.Proto))
	if overhead := rawSize - payload; overhead <= 0 || overhead > 4096 {
		t.Fatalf("chunked overhead %d bytes over %d payload (want small and positive)", overhead, payload)
	}
}

// TestDecodeShardStreamRejects: a full shard's read must attribute a flipped
// bit, a truncation, trailing garbage, and a lying raw size; a negative raw
// size never gets past the manifest's validation.
func TestDecodeShardStreamRejects(t *testing.T) {
	ri := &testJobImage(3).Images[1]
	sink := &memSink{}
	sw, err := NewShardWriterCodec(ri.Rank, sink, FlateCodec(0), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Encode(ri, true); err != nil {
		t.Fatal(err)
	}
	sum, err := sw.Close()
	if err != nil {
		t.Fatal(err)
	}
	blob := sink.Bytes()
	h, err := hashShard(ri, 0, false, nil) // the raw size a manifest carries
	if err != nil {
		t.Fatal(err)
	}
	rawSize := h.stream.size

	cases := map[string]struct {
		mutate  func([]byte) []byte
		rawSize int64
		want    string
	}{
		"bit-flip":  {func(b []byte) []byte { b[len(b)/2] ^= 1; return b }, rawSize, "corrupted"},
		"truncated": {func(b []byte) []byte { return b[:len(b)/2] }, rawSize, "corrupted"},
		"trailing":  {func(b []byte) []byte { return append(b, 0xEE) }, rawSize, "corrupted"},
		"raw-size":  {func(b []byte) []byte { return b }, rawSize + 1, "raw size mismatch"},
		"neg-size":  {func(b []byte) []byte { return b }, -1, "negative geometry"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), blob...))
			_, err := readFullShard(t, ri.Rank, b, tc.rawSize, sum.Checksum)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

// TestShardHeaderHostileLength: a header whose first gob message claims a
// length near the int64 limit is refused, not served, whatever raw size a
// re-sealed manifest declares — the reader's count of unserved bytes must
// not wrap.
func TestShardHeaderHostileLength(t *testing.T) {
	for _, prefix := range [][]byte{
		{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // MaxInt64
		{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf7}, // MaxInt64-8
		{0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // MaxUint64
	} {
		for _, rawSize := range []int64{math.MaxInt64, math.MaxInt64 - 8} {
			b := append(append(append([]byte(nil), shardRawMagic...), prefix...), make([]byte, 64)...)
			if _, err := readShardRaw(bufio.NewReader(bytes.NewReader(b)), rawSize); err == nil {
				t.Errorf("prefix %x under raw size %d: header accepted", prefix, rawSize)
			}
		}
	}
}

// openCounter is the oracle for the commit stage's encode bound: a Store
// that counts the shard writers open on it at once. Each writer stays open
// a moment past its last byte, so fan-out workers that may overlap do.
type openCounter struct {
	Store
	mu        sync.Mutex
	open, max int
}

func (s *openCounter) PutShardStream(epoch, rank int) (io.WriteCloser, error) {
	w, err := s.Store.PutShardStream(epoch, rank)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.open++
	s.max = max(s.max, s.open)
	s.mu.Unlock()
	return &countedWriter{WriteCloser: w, s: s}, nil
}

// reset starts a new count (no writer may be open).
func (s *openCounter) reset() {
	s.mu.Lock()
	s.max = 0
	s.mu.Unlock()
}

type countedWriter struct {
	io.WriteCloser
	s *openCounter
}

func (w *countedWriter) Close() error {
	time.Sleep(time.Millisecond)
	err := w.WriteCloser.Close()
	w.s.mu.Lock()
	w.s.open--
	w.s.mu.Unlock()
	return err
}

// checkStreamBound holds what a commit or compaction did against the
// oracle: at most min(GOMAXPROCS, maxEncodeStreams) writers open at once,
// and a reported peak of exactly the writers it held open at once times
// their footprint.
func checkStreamBound(t *testing.T, what string, s *openCounter, st *CommitStats) {
	t.Helper()
	bound := min(runtime.GOMAXPROCS(0), maxEncodeStreams)
	s.mu.Lock()
	held := s.max
	s.mu.Unlock()
	t.Logf("%s: %d writers open at once (bound %d), peak %d B", what, held, bound, st.PeakEncodeBytes)
	switch {
	case held > bound:
		t.Fatalf("%s held %d shard writers open at once; the bound is %d", what, held, bound)
	case st.PeakEncodeBytes != int64(held)*shardStreamFootprint:
		t.Fatalf("%s reported an encode peak of %d B but held %d streams of %d B at once",
			what, st.PeakEncodeBytes, held, shardStreamFootprint)
	}
}

// TestStreamBudgetBoundsOpenStreams: at GOMAXPROCS 4 and 1, a commit and a
// compaction — reused shards copied, page deltas flattened — each hold no
// more writers open at once than the bound admits, and report the peak
// they held.
func TestStreamBudgetBoundsOpenStreams(t *testing.T) {
	const ranks = 16
	for _, v := range []struct {
		name  string
		procs int
	}{
		{"default", 4},
		{"one", 1},
	} {
		t.Run(v.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs))
			store := &openCounter{Store: NewMemStore()}
			img0 := pagedImage(ranks, 7)
			sums, err := HashCapturePaged(img0, testPageSize)
			if err != nil {
				t.Fatal(err)
			}
			man0, st, err := CommitStreamed(store, 0, nil, img0, sums, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkStreamBound(t, "commit", store, st)

			// Half the ranks change a byte: epoch 1 stores them as page
			// deltas and references the rest, so its compaction both
			// flattens and copies.
			img1 := pagedImage(ranks, 7)
			for r := 0; r < ranks; r += 2 {
				img1.Images[r].App[100] ^= 0xFF
			}
			man1, st := commitPaged(t, store, 1, man0, img1)
			if st.DeltaShards != ranks/2 || st.ReusedShards != ranks/2 {
				t.Fatalf("epoch 1 stored %d deltas and reused %d shards, want %d of each", st.DeltaShards, st.ReusedShards, ranks/2)
			}
			store.reset()
			_, st, err = CompactChain(store, man1.Epoch, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkStreamBound(t, "compaction", store, st)
		})
	}
}

// TestHostileShardHeadersErrorCleanly: the entry reader parses header
// bytes BEFORE the checksum is verified, so hostile or bit-rotted framing
// must fail with a diagnostic — never a huge allocation or a panic.
func TestHostileShardHeadersErrorCleanly(t *testing.T) {
	compress := func(raw []byte) []byte { return flateBlob(t, raw) }

	t.Run("overflowing-payload-lengths", func(t *testing.T) {
		// A chunked header whose payload lengths sum past int64: each term
		// must be budgeted individually, not summed into an overflow.
		var raw bytes.Buffer
		raw.Write(shardRawMagic)
		hdr := shardRawHeader{Rank: 0, AppLen: 1 << 62, ProtoLen: 1 << 62,
			InflightLens: []int64{1 << 62, 1 << 62}, Inflight: make([]mpi.InflightSnapshot, 2)}
		if err := gob.NewEncoder(&raw).Encode(&hdr); err != nil {
			t.Fatal(err)
		}
		blob := compress(raw.Bytes())
		_, err := readFullShard(t, 0, blob, int64(raw.Len()), Sum64(blob))
		if err == nil || !strings.Contains(err.Error(), "payloads beyond") {
			t.Fatalf("overflowing header not rejected: %v", err)
		}
	})

	t.Run("absurd-gob-message-length", func(t *testing.T) {
		// A raw stream whose gob framing declares a multi-gigabyte message:
		// the capped reader must refuse before gob allocates it.
		raw := append(append([]byte(nil), shardRawMagic...),
			0xF8, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF) // -8 ext bytes: ~2^63
		blob := compress(raw)
		_, err := readFullShard(t, 0, blob, int64(len(raw)), Sum64(blob))
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("absurd gob message length not rejected: %v", err)
		}
	})
}

// BenchmarkStoreRoundTrip times CommitCapture + LoadJobImage over a MemStore
// — what a checkpoint-exit and its restart cost beyond the run, less the
// file writes — on a many-small-ranks
// image (fixed per-shard costs) and two bulk ones (half of each rank's state
// incompressible). Run with -cpu 1 to compare commits.
func BenchmarkStoreRoundTrip(b *testing.B) {
	shapes := []struct{ ranks, bytes int }{{64, 1600}, {8, 3 << 20}, {2, 16 << 20}}
	for _, s := range shapes {
		if testing.Short() && s.bytes > 1<<20 {
			s.bytes >>= 5
		}
		ji := &JobImage{Algorithm: "cc", Ranks: s.ranks, PPN: 2, CaptureVT: 1, Images: make([]RankImage, s.ranks)}
		for r := range ji.Images {
			app := noisyBytes(s.bytes, uint64(r+1))
			for i := len(app) / 2; i < len(app); i++ {
				app[i] = byte(r + i>>6)
			}
			ji.Images[r] = RankImage{Rank: r, App: app, Proto: []byte{byte(r)}, ClockVT: 1,
				Desc: Descriptor{Kind: ParkPreCollective, Coll: &CollDesc{Kind: 1, InBufID: "x", OutBufID: "x"}}}
		}
		b.Run(fmt.Sprintf("%dx%d", s.ranks, s.bytes), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(s.ranks * s.bytes))
			for i := 0; i < b.N; i++ {
				store := NewMemStore()
				if _, _, err := CommitCapture(store, 0, nil, ji); err != nil {
					b.Fatal(err)
				}
				if _, err := LoadJobImage(store, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
