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

// TestInfoGolden pins what `ccimg info -v` and `ccimg info -json` print for
// a page-delta store and a CDC store: both kinds of partial entry go through
// the one Sources branch, and the output is what scripts parse. Regenerate
// with `go test ./cmd/ccimg -update`.
func TestInfoGolden(t *testing.T) {
	dir := t.TempDir()
	stores := []struct {
		name  string
		store *ckpt.FileStore
	}{
		{"delta", twoEpochStore(t, filepath.Join(dir, "delta"),
			func(r int) []byte { return bytes.Repeat([]byte{byte(7 + r)}, 16<<10) },
			func(img *ckpt.JobImage) (*ckpt.ShardSums, error) { return ckpt.HashCapturePaged(img, 1<<10) },
			func(app []byte) []byte { app[5000] ^= 0xFF; return app })},
		{"cdc", twoEpochStore(t, filepath.Join(dir, "cdc"),
			func(r int) []byte { return noisy(256<<10, uint64(r+1)) },
			ckpt.HashCaptureCDC,
			func(app []byte) []byte {
				return append(append(append([]byte(nil), app[:4096]...), noisy(32, 99)...), app[4096:]...)
			})},
	}
	for _, s := range stores {
		man, err := s.store.GetManifest(1)
		if err != nil {
			t.Fatal(err)
		}
		if si := man.Shards[1]; !si.Partial() || si.RefEpoch != 1 {
			t.Fatalf("%s fixture did not store rank 1 as a partial object: %+v", s.name, si)
		}
		var text, js bytes.Buffer
		if err := storeInfo(&text, s.store, s.name+"-store", true); err != nil {
			t.Fatal(err)
		}
		if err := storeInfoJSON(&js, s.store, s.name+"-store", nil); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, s.name+"_info.txt", text.Bytes())
		checkGolden(t, s.name+"_info.json", js.Bytes())
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

// TestImageGolden pins what every command prints for a packed image FILE:
// the path resolves to the one-epoch store the file is, so info, info
// -json, verify and extract are the store arms TestInfoGolden pins for
// directories, plus the job summary only a file target prints. gc and
// compact refuse it.
func TestImageGolden(t *testing.T) {
	ji := &ckpt.JobImage{Algorithm: "2pc", Ranks: 3, PPN: 2, CaptureVT: 0.75, Images: []ckpt.RankImage{
		{Rank: 0, ClockVT: 0.75, App: bytes.Repeat([]byte{7}, 4<<10), Proto: []byte{1},
			Desc: ckpt.Descriptor{Kind: ckpt.ParkInBarrier, Coll: &ckpt.CollDesc{CommVID: 1, Kind: 2, Root: 1, InBufID: "in", OutBufID: "out"}}},
		{Rank: 1, ClockVT: 0.5, App: noisy(3000, 1), Proto: []byte{2, 2},
			Desc:     ckpt.Descriptor{Kind: ckpt.ParkInWait, Recvs: []ckpt.RecvDesc{{CommVID: 0, Src: 2, Tag: 9, BufID: "halo", Off: 16, Len: 32}}},
			Inflight: []mpi.InflightSnapshot{{CommID: 0, SrcComm: 2, Tag: 9, Data: []byte("payload")}}},
		{Rank: 2, ClockVT: 0.25, App: []byte("done"), Desc: ckpt.Descriptor{Kind: ckpt.ParkDone}},
	}}
	data, err := ji.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	img := filepath.Join(dir, "small.img")
	if err := os.WriteFile(img, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var text, js bytes.Buffer
	for _, c := range []struct {
		name string
		run  func(io.Writer, []string) error
		args []string
	}{
		{"info", runInfo, []string{"-v", img}},
		{"verify", runVerify, []string{img}},
		{"extract", runExtract, []string{"-rank", "1", img}},
	} {
		fmt.Fprintf(&text, "$ ccimg %s %s\n", c.name, strings.Join(c.args, " "))
		if err := c.run(&text, c.args); err != nil {
			t.Fatal(err)
		}
	}
	if err := runInfo(&js, []string{"-json", img}); err != nil {
		t.Fatal(err)
	}
	unrooted := func(b []byte) []byte { return bytes.ReplaceAll(b, []byte(dir+string(filepath.Separator)), nil) }
	checkGolden(t, "image_info.txt", unrooted(text.Bytes()))
	checkGolden(t, "image_info.json", unrooted(js.Bytes()))

	for name, run := range map[string]func(io.Writer, []string) error{"gc": runGC, "compact": runCompact} {
		if err := run(io.Discard, []string{img}); err == nil || !strings.Contains(err.Error(), "not an image file") {
			t.Errorf("%s on an image file: %v", name, err)
		}
	}
	// An image in the retired blob format fails by its magic.
	old := append([]byte("MANAIMG2"), data[8:]...)
	if err := os.WriteFile(img, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runVerify(io.Discard, []string{img}); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("MANAIMG2 file: %v (want a bad-magic error)", err)
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
