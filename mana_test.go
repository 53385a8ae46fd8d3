package mana

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func apiConfig(ranks int, algo string) Config {
	return Config{Ranks: ranks, PPN: 8, Params: PerlmutterLike(), Algorithm: algo}
}

func TestPublicAPIRunWorkloads(t *testing.T) {
	for _, name := range WorkloadNames {
		factory, err := Workload(name, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(apiConfig(8, AlgoCC), factory)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Completed || rep.RuntimeVT <= 0 {
			t.Fatalf("%s: bad report %+v", name, rep)
		}
	}
	if _, err := Workload("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPublicAPICheckpointRoundtripViaFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.img")

	factory, err := Workload("comd", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apiConfig(8, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtVT: 0.05, Mode: ExitAfterCapture}
	rep, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image == nil {
		t.Fatal("no image")
	}
	if err := SaveImage(path, rep.Image); err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if img.Ranks != 8 || img.Algorithm != AlgoCC {
		t.Fatalf("image header wrong: %+v", img)
	}
	rep2, err := Restart(apiConfig(8, AlgoCC), img, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Completed {
		t.Fatal("restart did not complete")
	}
	if _, err := LoadImage(filepath.Join(dir, "missing.img")); err == nil {
		t.Fatal("missing image loaded")
	}
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(path); err == nil {
		t.Fatal("junk image decoded")
	}
}

// TestSaveImageKeepsOldImage: SaveImage replaces an image only once the new
// one is whole and synced, so a write that fails — here because a directory
// occupies the temp name — leaves the previous image byte for byte.
func TestSaveImageKeepsOldImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.img")
	image := func(fill byte) *JobImage {
		return &JobImage{Algorithm: AlgoCC, Ranks: 1, PPN: 1, CaptureVT: 1,
			Images: []RankImage{{Rank: 0, App: bytes.Repeat([]byte{fill}, 4096), Proto: []byte{fill}}}}
	}
	if err := SaveImage(path, image(1)); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveImage(path, image(2)); err == nil {
		t.Fatal("SaveImage succeeded with its temp name taken")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("failed SaveImage changed the image on disk (err %v)", err)
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := SaveImage(path, image(2)); err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if img.Images[0].Proto[0] != 2 {
		t.Fatal("second SaveImage did not replace the image")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestPublicAPICustomOSU(t *testing.T) {
	rep, err := Run(apiConfig(8, Algo2PC), func(int) App {
		return NewOSU(OSUConfig{Kind: Bcast, Size: 1024, Iterations: 20})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.Barriers2PC == 0 {
		t.Fatal("2PC inserted no barriers")
	}
}

func TestPublicAPIHelpers(t *testing.T) {
	xs := []float64{1.5, -2.25, math.Pi}
	back := BytesF64(F64Bytes(xs))
	for i := range xs {
		if back[i] != xs[i] {
			t.Fatalf("f64 roundtrip failed at %d", i)
		}
	}
	if PerlmutterLike().LatencyInter >= EthernetLike().LatencyInter {
		t.Fatal("ethernet should be slower than slingshot")
	}
	if len(WorkloadNames) != 5 {
		t.Fatalf("expected 5 workloads, got %d", len(WorkloadNames))
	}
	for _, c := range []CollKind{Barrier, Bcast, Reduce, Allreduce, Gather, Allgather, Alltoall, Scatter, Scan} {
		if c.String() == "Unknown" {
			t.Fatalf("kind %d unnamed", c)
		}
	}
}

func TestPublicAPIDefaultsExported(t *testing.T) {
	if DefaultVASPConfig().Iterations == 0 ||
		DefaultPoissonConfig().MaxIters == 0 ||
		DefaultCoMDConfig().Steps == 0 ||
		DefaultLJConfig().Steps == 0 ||
		DefaultSW4Config().Steps == 0 {
		t.Fatal("default configs incomplete")
	}
}

func TestGridTopology(t *testing.T) {
	g := NewGrid([]int{3, 4}, []bool{true, false})
	if r := g.Rank(g.Coords(7)); r != 7 {
		t.Fatalf("coords/rank roundtrip: %d", r)
	}
	src, dst := g.Shift(0, 0, 1) // periodic rows
	if src != 8 || dst != 4 {
		t.Fatalf("periodic shift got src %d dst %d", src, dst)
	}
	_, dst = g.Shift(3, 1, 1) // coords (0,3): east edge, non-periodic
	if dst != -1 {
		t.Fatalf("edge shift should be PROC_NULL, got %d", dst)
	}
	if d := DimsCreate(12, 2); d[0] != 4 || d[1] != 3 {
		t.Fatalf("DimsCreate(12,2) = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched periodic length accepted")
		}
	}()
	NewGrid([]int{2}, []bool{true, false})
}
