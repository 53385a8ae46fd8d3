package ckpt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// headerOf is the shard header newShardStream encodes for ri.
func headerOf(ri *RankImage) *shardRawHeader {
	h := &shardRawHeader{Rank: ri.Rank, Desc: ri.Desc, ClockVT: ri.ClockVT,
		AppLen: int64(len(ri.App)), ProtoLen: int64(len(ri.Proto))}
	for _, m := range ri.Inflight {
		h.InflightLens = append(h.InflightLens, int64(len(m.Data)))
		m.Data = nil
		h.Inflight = append(h.Inflight, m)
	}
	return h
}

// gobShapes are the records the codec tests run on: shard headers with and
// without Coll, Recvs and Inflight, and a full, a page-delta and a CDC
// manifest, each as a real commit seals it.
func gobShapes(t testing.TB) (hdrs []*shardRawHeader, mans []*Manifest) {
	t.Helper()
	ji := testJobImage(3)
	for r := range ji.Images {
		hdrs = append(hdrs, headerOf(&ji.Images[r])) // Coll+Recvs+Inflight, Coll, neither
	}
	recvsOnly := ji.Images[0]
	recvsOnly.Desc.Coll, recvsOnly.Inflight = nil, nil
	inflightOnly := ji.Images[0]
	inflightOnly.Desc = Descriptor{Kind: ParkDone}
	hdrs = append(hdrs, headerOf(&recvsOnly), headerOf(&inflightOnly))

	full, _, err := CommitCapture(NewMemStore(), 0, nil, ji)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	paged := pagedImage(2, 1)
	man0, _ := commitPaged(t, store, 0, nil, paged)
	paged.Images[0].App[100] ^= 1
	delta, _ := commitPaged(t, store, 1, man0, paged)
	store = NewMemStore()
	chunked := cdcImage(2, 1)
	man0, _ = commitCDC(t, store, 0, nil, chunked)
	chunked.Images[0].App = insertAt(chunked.Images[0].App, 5000, []byte("shift"))
	cdc, _ := commitCDC(t, store, 1, man0, chunked)
	for _, c := range []struct {
		man    *Manifest
		format int
	}{{delta, RawFormatPageDelta}, {cdc, RawFormatCDC}} {
		if c.man.Shards[0].RawFormat != c.format {
			t.Fatalf("epoch 1 rank 0 stored format %d, want %d", c.man.Shards[0].RawFormat, c.format)
		}
	}
	return hdrs, []*Manifest{full, delta, cdc}
}

// freshGob is what a fresh gob.Encoder writes for v.
func freshGob(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// codecRoundTrip encodes v through c, holds the record to a fresh
// encoder's bytes, decodes it back through c into out and holds out to v.
func codecRoundTrip(t testing.TB, c *gobCodec, v, out any) {
	t.Helper()
	want := freshGob(t, v)
	got, err := c.encode([]byte("lead"), v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("lead"), want...)) {
		t.Fatalf("codec wrote %x after its lead, a fresh encoder %x", got[4:], want)
	}
	if err := c.decode(bufio.NewReader(bytes.NewReader(want)), int64(len(want)), out); err != nil {
		t.Fatal(err)
	}
	if n, err := c.decodeBytes(want, out); err != nil || n != len(want) {
		t.Fatalf("codec took %d of a %d-byte record: %v", n, len(want), err)
	}
	if back := freshGob(t, out); !bytes.Equal(back, want) {
		t.Fatalf("codec decoded a value that encodes to %x, want %x", back, want)
	}
}

const gobChildEnv = "MANA_GOB_CODEC_CHILD"

// runGobChild re-runs the named test in a child process that has done
// nothing else, with the given value in gobChildEnv.
func runGobChild(t *testing.T, name, value string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.v")
	cmd.Env = append(os.Environ(), gobChildEnv+"="+value)
	out, err := cmd.CombinedOutput()
	t.Logf("child process:\n%s", out)
	if err != nil {
		t.Fatalf("%s failed in the child process: %v", name, err)
	}
}

// TestGobCodecMatchesFresh: the codec's records are a fresh encoder's bytes
// on the first call in a process (the child runs nothing before it), on
// every later one, and from goroutines encoding and decoding every shape
// at once; each decodes back to its value.
func TestGobCodecMatchesFresh(t *testing.T) {
	if os.Getenv(gobChildEnv) == "" {
		runGobChild(t, "TestGobCodecMatchesFresh", "fresh")
		return
	}
	ji := testJobImage(1)
	codecRoundTrip(t, &headerGob, headerOf(&ji.Images[0]), new(shardRawHeader))
	codecRoundTrip(t, &manifestGob, &Manifest{Algorithm: "cc", Ranks: 1, Shards: []ShardInfo{{RawFormat: RawFormatChunked}}}, new(Manifest))

	hdrs, mans := gobShapes(t)
	var wg sync.WaitGroup
	for g := 0; g < 2*runtime.GOMAXPROCS(0)+2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				codecRoundTrip(t, &headerGob, hdrs[(g+i)%len(hdrs)], new(shardRawHeader))
				codecRoundTrip(t, &manifestGob, mans[(g+i)%len(mans)], new(Manifest))
			}
		}(g)
	}
	wg.Wait()
}

// TestGobForeignDefinitionsDecodeFresh: records from a process that numbered
// the types in another order (the child gob-encodes a type of its own
// first) carry other definition bytes; they decode, fresh and then primed
// under those bytes, to the values that process encoded. The child sends
// each value alongside as JSON, which no type numbering reaches.
func TestGobForeignDefinitionsDecodeFresh(t *testing.T) {
	path := os.Getenv(gobChildEnv)
	if path == "" {
		path = filepath.Join(t.TempDir(), "records")
		runGobChild(t, "TestGobForeignDefinitionsDecodeFresh", path)
		foreignRecords(t, path)
		return
	}
	type decoy struct {
		A []string
		B float64
	}
	freshGob(t, decoy{A: []string{"numbers"}})
	hdrs, mans := gobShapes(t)
	var out []byte
	for _, v := range []any{mans[0], hdrs[0], hdrs[1], mans[2]} {
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{freshGob(t, v), js} {
			out = append(binary.LittleEndian.AppendUint32(out, uint32(len(b))), b...)
		}
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func foreignRecords(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := func() []byte {
		n := binary.LittleEndian.Uint32(data)
		b := data[4 : 4+n]
		data = data[4+n:]
		return b
	}
	defsOf := func(rec []byte) []byte {
		split, end := scanRecord(rec)
		if end == 0 {
			t.Fatalf("record %x is not whole in view", rec)
		}
		return rec[:split]
	}
	hdrs, mans := gobShapes(t)
	for i, v := range []any{mans[0], hdrs[0], hdrs[1], mans[2]} {
		rec, js := next(), next()
		c, fresh := &manifestGob, func() any { return new(Manifest) }
		if _, ok := v.(*shardRawHeader); ok {
			c, fresh = &headerGob, func() any { return new(shardRawHeader) }
		}
		codecRoundTrip(t, c, v, fresh()) // this process's definitions are cached
		if bytes.Equal(defsOf(rec), defsOf(freshGob(t, v))) {
			t.Fatalf("record %d: the child sent this process's definitions; its type numbering did not move", i)
		}
		for pass := 0; pass < 2; pass++ {
			got := fresh()
			if err := c.decode(bufio.NewReader(bytes.NewReader(rec)), int64(len(rec)), got); err != nil {
				t.Fatalf("record %d pass %d: %v", i, pass, err)
			}
			if back, err := json.Marshal(got); err != nil || !bytes.Equal(back, js) {
				t.Fatalf("record %d pass %d decoded to %s (%v), the child encoded %s", i, pass, back, err, js)
			}
		}
		// The pool itself may drop its decoder (the race detector makes it),
		// so this looks for the definitions among the codec's prefixes.
		c.mu.Lock()
		kept := false
		for _, p := range c.decs {
			kept = kept || bytes.Equal(p.defs, defsOf(rec))
		}
		c.mu.Unlock()
		if !kept {
			t.Fatalf("record %d: the child's definitions are not among the codec's prefixes", i)
		}
	}
}

// primedAgrees decodes data through c, its cache warm, and through a fresh
// gob.Decoder — behind a capped reader when capped, as readShardRaw read a
// header, over the bytes themselves otherwise, as DecodeManifestRecord read
// a record — and fails unless both refuse it or both decode the same value
// having read the same bytes.
func primedAgrees[T any](t *testing.T, c *gobCodec, data []byte, capped bool) {
	t.Helper()
	var primed, fresh T
	var perr, ferr error
	var pn, fn int // bytes read
	if capped {
		ps, fs := bytes.NewReader(data), bytes.NewReader(data)
		pr, fr := bufio.NewReader(ps), bufio.NewReader(fs)
		perr = c.decode(pr, int64(len(data)), &primed)
		ferr = gob.NewDecoder(newCappedMessageReader(fr, int64(len(data)))).Decode(&fresh)
		pn, fn = len(data)-pr.Buffered()-ps.Len(), len(data)-fr.Buffered()-fs.Len()
	} else {
		fs := bytes.NewReader(data)
		pn, perr = c.decodeBytes(data, &primed)
		ferr = gob.NewDecoder(fs).Decode(&fresh)
		fn = len(data) - fs.Len()
	}
	if (perr == nil) != (ferr == nil) {
		t.Fatalf("%T: primed decode says %v, fresh decode %v", primed, perr, ferr)
	}
	if perr != nil {
		return
	}
	if a, b := freshGob(t, &primed), freshGob(t, &fresh); !bytes.Equal(a, b) {
		t.Fatalf("%T: primed decode %+v, fresh decode %+v", primed, primed, fresh)
	}
	if pn != fn {
		t.Fatalf("%T: primed decode read %d bytes, fresh decode %d", primed, pn, fn)
	}
}

// FuzzGobPrimedAgree: for any bytes, the codec's decode with its cache warm
// gives the verdict and value a fresh gob.Decoder gives — a shard header
// through the same capped reader readShardRaw uses, a manifest record's body
// as DecodeManifestRecord read it before the codec — and after whatever the
// input was, valid records still decode.
func FuzzGobPrimedAgree(f *testing.F) {
	hdrs, mans := gobShapes(f)
	var valid [][]byte
	for _, h := range hdrs {
		valid = append(valid, freshGob(f, h))
	}
	for _, m := range mans {
		valid = append(valid, freshGob(f, m))
	}
	for _, v := range valid {
		f.Add(v)
		f.Add(v[:len(v)/2])
	}
	f.Add(append(append([]byte(nil), valid[0]...), valid[0]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		primedAgrees[shardRawHeader](t, &headerGob, data, true)
		primedAgrees[Manifest](t, &manifestGob, data, false)
		codecRoundTrip(t, &headerGob, hdrs[0], new(shardRawHeader))
		codecRoundTrip(t, &manifestGob, mans[1], new(Manifest))
	})
}

// TestShardStreamAllocs: laying out one more shard pays for its segment
// list and its header bytes, not for gob's type exchange. Through a fresh
// gob.Encoder a shard took 44 allocations and 4.9 KB on go1.24; through
// the codec it takes 12 and 1.1 KB.
func TestShardStreamAllocs(t *testing.T) {
	skipUnderRace(t)
	ri := &testJobImage(1).Images[0] // Coll, Recvs and an in-flight message
	lay := func() {
		if _, err := newShardStream(ri, true); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, lay)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lay()
	runtime.ReadMemStats(&after)
	bytesPer := after.TotalAlloc - before.TotalAlloc
	t.Logf("laying out one shard: %.0f allocations, %d bytes", allocs, bytesPer)
	if allocs > 16 {
		t.Errorf("laying out one shard takes %.0f allocations, want <= 16", allocs)
	}
	if bytesPer > 2048 {
		t.Errorf("laying out one shard allocates %d bytes, want <= 2048", bytesPer)
	}
}

// TestGobUint: counts are read as gob writes them, and a fresh record is
// found whole — its definitions, then its one value message — whether it
// ends the stream or bytes follow — and never when it is cut short.
func TestGobUint(t *testing.T) {
	for _, c := range []struct {
		b     []byte
		u     uint64
		width int
		ok    bool
	}{
		{nil, 0, 0, false},
		{[]byte{0xff}, 0, 0, false},    // one length byte announced, none present
		{[]byte{0x81}, 0, 0, false},    // 127 length bytes: not a gob count
		{[]byte{0xf7, 0}, 0, 0, false}, // nine length bytes: not a gob count
		{[]byte{0x03}, 3, 1, true},
		{[]byte{0xfe, 0x01, 0x02, 9}, 0x102, 3, true},
		{[]byte{0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 1<<64 - 1, 9, true},
	} {
		u, width, ok := gobUint(c.b)
		if u != c.u || width != c.width || ok != c.ok {
			t.Errorf("gobUint(%x) = %d, %d, %v; want %d, %d, %v", c.b, u, width, ok, c.u, c.width, c.ok)
		}
	}
	rec := freshGob(t, &shardRawHeader{Rank: 3})
	for _, tail := range [][]byte{nil, []byte("payload")} {
		split, end := scanRecord(append(rec, tail...))
		if end != len(rec) || split == 0 || split >= len(rec) {
			t.Fatalf("scanRecord over a fresh record and %d bytes: value message at %d, record ends at %d of %d",
				len(tail), split, end, len(rec))
		}
	}
	for cut := 0; cut < len(rec); cut++ {
		if split, end := scanRecord(rec[:cut]); split != 0 || end != 0 {
			t.Fatalf("scanRecord over %d of %d bytes: value message at %d, record ends at %d", cut, len(rec), split, end)
		}
	}
}
