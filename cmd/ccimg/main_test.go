package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mana/internal/ckpt"
	"mana/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from this run's output")

// noisy fills n bytes from a xorshift64 stream (content with plenty of
// chunk boundaries).
func noisy(n int, seed uint64) []byte {
	b := make([]byte, n)
	s := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte(s)
	}
	return b
}

// twoEpochStore commits a 3-rank image, then the same image with rank 1's
// state passed through edit, hashing both with hash — the commit sequence
// the coordinator runs. Rank 0 stays a reference, rank 1 becomes a partial
// object, rank 2 is rewritten whole.
func twoEpochStore(t *testing.T, dir string, app func(rank int) []byte,
	hash func(*ckpt.JobImage) (*ckpt.ShardSums, error), edit func([]byte) []byte) *ckpt.FileStore {
	t.Helper()
	store, err := ckpt.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	image := func() *ckpt.JobImage {
		ji := &ckpt.JobImage{Algorithm: "cc", Ranks: 3, PPN: 3, CaptureVT: 1.5, Images: make([]ckpt.RankImage, 3)}
		for r := range ji.Images {
			ji.Images[r] = ckpt.RankImage{Rank: r, Desc: ckpt.Descriptor{Kind: ckpt.ParkBoundary},
				App: app(r), Proto: []byte{byte(r)}, ClockVT: 1 + float64(r)/8}
		}
		return ji
	}
	var parent *ckpt.Manifest
	for epoch, img := range []*ckpt.JobImage{image(), image()} {
		if epoch == 1 {
			img.CaptureVT = 2.5
			img.Images[1].App = edit(img.Images[1].App)
			for i := range img.Images[2].App {
				img.Images[2].App[i] ^= 0x5A
			}
		}
		sums, err := hash(img)
		if err != nil {
			t.Fatal(err)
		}
		if parent, _, err = ckpt.CommitStreamed(store, epoch, parent, img, sums, nil); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// volatile matches what the compressor and gob's process-wide type numbering
// decide — compressed sizes and every checksum — in both renderings. The
// goldens hold "~" there, so they pin the rendering (columns, field names,
// the partial/sources lines and their raw byte counts) and survive a
// toolchain that deflates differently.
var volatile = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"(size|fresh_bytes|reused_bytes|partial_bytes)": \d+`), `"$1": "~"`},
	{regexp.MustCompile(`"(checksum|raw_sum)": "[0-9a-f]+"`), `"$1": "~"`},
	{regexp.MustCompile(`(?m)^(\d+ +\S+ +\d+ +[\d.]+s +\d+ +\d+ +\d+) +\d+ +\d+ +\d+$`), `$1 ~ ~ ~`},
	{regexp.MustCompile(`, \d+B \(raw `), `, ~B (raw `},
}

func maskVolatile(out []byte) []byte {
	for _, v := range volatile {
		out = v.re.ReplaceAll(out, []byte(v.repl))
	}
	return out
}

// TestInfoGolden pins what `ccimg info -v` and `ccimg info -v -json` print
// for a page-delta store and a CDC store: both kinds of partial entry go
// through the one Sources branch, the newest epoch's census follows the
// chain, and the output is what scripts parse. Regenerate with
// `go test ./cmd/ccimg -update`.
func TestInfoGolden(t *testing.T) {
	dir := t.TempDir()
	stores := []struct {
		name  string
		store *ckpt.FileStore
	}{
		{"delta", twoEpochStore(t, filepath.Join(dir, "delta-store"),
			func(r int) []byte { return bytes.Repeat([]byte{byte(7 + r)}, 16<<10) },
			func(img *ckpt.JobImage) (*ckpt.ShardSums, error) { return ckpt.HashCapturePaged(img, 1<<10) },
			func(app []byte) []byte { app[5000] ^= 0xFF; return app })},
		{"cdc", twoEpochStore(t, filepath.Join(dir, "cdc-store"),
			func(r int) []byte { return noisy(256<<10, uint64(r+1)) },
			ckpt.HashCaptureCDC,
			func(app []byte) []byte {
				return append(append(append([]byte(nil), app[:4096]...), noisy(32, 99)...), app[4096:]...)
			})},
	}
	unrooted := func(b []byte) []byte { return bytes.ReplaceAll(b, []byte(dir+string(filepath.Separator)), nil) }
	for _, s := range stores {
		man, err := s.store.GetManifest(1)
		if err != nil {
			t.Fatal(err)
		}
		if si := man.Shards[1]; !si.Partial() || si.RefEpoch != 1 {
			t.Fatalf("%s fixture did not store rank 1 as a partial object: %+v", s.name, si)
		}
		var text, js bytes.Buffer
		if err := runInfo(&text, []string{"-v", s.store.Root}); err != nil {
			t.Fatal(err)
		}
		if err := runInfo(&js, []string{"-v", "-json", s.store.Root}); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, s.name+"_info.txt", unrooted(text.Bytes()))
		checkGolden(t, s.name+"_info.json", unrooted(js.Bytes()))
	}
}

// checkGolden compares masked output against testdata/<file>, or rewrites
// the file under -update.
func checkGolden(t *testing.T, file string, out []byte) {
	t.Helper()
	got, path := maskVolatile(out), filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file (go test ./cmd/ccimg -update rewrites it):\n--- got\n%s--- want\n%s", file, got, want)
	}
}

// TestInfoCensus: `info -v` decodes the newest epoch and prints its park
// census and p2p drain, and each rank's descriptor, in text and in -json;
// without -v, info reads manifests only and so lists a store whose shard is
// damaged. verify and extract read the same directory, gc and compact run
// on it, and a regular file is refused by every command.
func TestInfoCensus(t *testing.T) {
	ji := &ckpt.JobImage{Algorithm: "2pc", Ranks: 3, PPN: 2, CaptureVT: 0.75, Images: []ckpt.RankImage{
		{Rank: 0, ClockVT: 0.75, App: bytes.Repeat([]byte{7}, 4<<10), Proto: []byte{1},
			Desc: ckpt.Descriptor{Kind: ckpt.ParkInBarrier, Coll: &ckpt.CollDesc{CommVID: 1, Kind: 2, Root: 1, InBufID: "in", OutBufID: "out"}}},
		{Rank: 1, ClockVT: 0.5, App: noisy(3000, 1), Proto: []byte{2, 2},
			Desc:     ckpt.Descriptor{Kind: ckpt.ParkInWait, Recvs: []ckpt.RecvDesc{{CommVID: 0, Src: 2, Tag: 9, BufID: "halo", Off: 16, Len: 32}}},
			Inflight: []mpi.InflightSnapshot{{CommID: 0, SrcComm: 2, Tag: 9, Data: []byte("payload")}}},
		{Rank: 2, ClockVT: 0.25, App: []byte("done"), Desc: ckpt.Descriptor{Kind: ckpt.ParkDone}},
	}}
	dir := filepath.Join(t.TempDir(), "job")
	store, err := ckpt.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ckpt.CommitCapture(store, 0, nil, ji); err != nil {
		t.Fatal(err)
	}
	run := func(cmd func(io.Writer, []string) error, args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := cmd(&out, append(args, dir)); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}
	for _, want := range []string{
		"epoch 0, decoded:\n",
		"  ranks:       3 (2 per node, 2 nodes)\n",
		"  total bytes: 7110\n",
		"  park kinds:  in-barrier:1 in-wait:1 done:1 \n",
		"  p2p drain:   1 in-flight messages (7 bytes), 1 pending receives\n",
		`           pending collective: Reduce on comm vid 1 (root 1, bufs "in"/"out")` + "\n",
		"           pending recv: comm vid 0 src 2 tag 9 -> halo[16:48]\n",
		"rank    2: park=done           app=4B proto=0B clock=0.250000s\n",
	} {
		if out := run(runInfo, "-v"); !strings.Contains(out, want) {
			t.Errorf("info -v lacks %q:\n%s", want, out)
		}
	}
	for _, want := range []string{
		`"census": {`, `"total_bytes": 7110`, `"in-barrier": 1`, `"inflight_messages": 1`, `"inflight_bytes": 7`, `"pending_recvs": 1`,
	} {
		if out := run(runInfo, "-v", "-json"); !strings.Contains(out, want) {
			t.Errorf("info -v -json lacks %s:\n%s", want, out)
		}
	}
	if out := run(runInfo, "-json"); strings.Contains(out, "census") {
		t.Errorf("info -json without -v printed a census:\n%s", out)
	}
	if out := run(runVerify); !strings.Contains(out, "all epochs verify: ok") {
		t.Errorf("verify: %s", out)
	}
	if out := run(runExtract, "-rank", "1"); !strings.Contains(out, "in-flight: comm 0 from 2 tag 9 (7 bytes)") {
		t.Errorf("extract -rank 1: %s", out)
	}
	run(runCompact)
	if out := run(runGC, "-keep", "1"); !strings.Contains(out, "kept epochs [0]") {
		t.Errorf("gc -keep 1: %s", out)
	}

	// A damaged shard: the manifest-only listing still reads; the census,
	// which decodes every shard, names the rank.
	shard := store.ShardPath(0, 1)
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(shard, b, 0o644); err != nil {
		t.Fatal(err)
	}
	run(runInfo)
	if err := runInfo(io.Discard, []string{"-v", dir}); err == nil || !strings.Contains(err.Error(), "epoch 0 rank 1") {
		t.Errorf("info -v over a damaged shard: %v", err)
	}

	empty := t.TempDir()
	var out bytes.Buffer
	if err := runInfo(&out, []string{"-v", empty}); err != nil || !strings.Contains(out.String(), "(0 sealed epochs)") {
		t.Errorf("info -v on an empty store: %v\n%s", err, out.String())
	}

	file := filepath.Join(t.TempDir(), "job.img")
	if err := os.WriteFile(file, []byte("MANAIMG3"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, cmd := range map[string]func(io.Writer, []string) error{
		"info": runInfo, "verify": runVerify, "extract": runExtract, "gc": runGC, "compact": runCompact,
	} {
		if err := cmd(io.Discard, []string{file}); err == nil || !strings.Contains(err.Error(), "not a store directory") {
			t.Errorf("%s on a regular file: %v", name, err)
		}
	}
}

// TestExtractRawStream: `extract -o` writes the rank's raw stream as the
// store holds it — RawSize bytes whose XXH64 is the manifest's RawSum — for
// a full shard, a reference to one, and a CDC and a page-delta partial
// object, whose bytes the extent merge reassembles.
func TestExtractRawStream(t *testing.T) {
	dir := t.TempDir()
	cdcDir, deltaDir := filepath.Join(dir, "cdc"), filepath.Join(dir, "delta")
	cdc := twoEpochStore(t, cdcDir,
		func(r int) []byte { return noisy(256<<10, uint64(r+1)) },
		ckpt.HashCaptureCDC,
		func(app []byte) []byte {
			return append(append(append([]byte(nil), app[:4096]...), noisy(32, 99)...), app[4096:]...)
		})
	delta := twoEpochStore(t, deltaDir,
		func(r int) []byte { return bytes.Repeat([]byte{byte(7 + r)}, 16<<10) },
		func(img *ckpt.JobImage) (*ckpt.ShardSums, error) { return ckpt.HashCapturePaged(img, 1<<10) },
		func(app []byte) []byte { app[5000] ^= 0xFF; return app })
	for _, c := range []struct {
		name        string
		path        string
		store       *ckpt.FileStore
		epoch, rank int
		partial     bool
	}{
		{"full shard", cdcDir, cdc, 0, 1, false},
		{"reference to a full shard", cdcDir, cdc, 1, 0, false},
		{"CDC object", cdcDir, cdc, 1, 1, true},
		{"page-delta object", deltaDir, delta, 1, 1, true},
	} {
		man, err := c.store.GetManifest(c.epoch)
		if err != nil {
			t.Fatal(err)
		}
		si := man.Shards[c.rank]
		if si.Partial() != c.partial {
			t.Fatalf("%s: the fixture's entry is partial=%v", c.name, si.Partial())
		}
		out := filepath.Join(dir, fmt.Sprintf("%s-%d-%d.raw", filepath.Base(c.path), c.epoch, c.rank))
		args := []string{"-rank", fmt.Sprint(c.rank), "-epoch", fmt.Sprint(c.epoch), "-o", out, c.path}
		if err := runExtract(io.Discard, args); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(raw)) != si.RawSize || ckpt.Sum64(raw) != si.RawSum || !bytes.HasPrefix(raw, []byte("MANASHD1")) {
			t.Errorf("%s: wrote %d bytes sum %#x, want the %d-byte raw stream sum %#x", c.name, len(raw), ckpt.Sum64(raw), si.RawSize, si.RawSum)
		}
	}
}
