package mana

import (
	"math"
	"os"
	"path/filepath"
	"strings"
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

// TestPublicAPICheckpointRoundtripViaFiles: a checkpoint-exit run seals
// its capture into a store directory, and a restart reads it back from
// there; a regular file where the directory should be is refused by name.
func TestPublicAPICheckpointRoundtripViaFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := Workload("comd", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apiConfig(8, AlgoCC)
	cfg.Checkpoint = &CkptPlan{AtVT: 0.05, Mode: ExitAfterCapture, Store: store}
	rep, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image == nil || rep.Store != store {
		t.Fatal("no image sealed into the store")
	}
	img, err := LoadJobImage(store, rep.Checkpoint.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if img.Ranks != 8 || img.Algorithm != AlgoCC {
		t.Fatalf("image header wrong: %+v", img)
	}
	reopened, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := RestartFromStore(apiConfig(8, AlgoCC), reopened, -1, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Completed {
		t.Fatal("restart did not complete")
	}
	empty, err := NewFileStore(filepath.Join(t.TempDir(), "empty"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestartFromStore(apiConfig(8, AlgoCC), empty, -1, factory); err == nil {
		t.Fatal("restart from an empty store succeeded")
	}
	file := filepath.Join(t.TempDir(), "job.img")
	if err := os.WriteFile(file, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(file); err == nil || !strings.Contains(err.Error(), "not a store directory") {
		t.Fatalf("a regular file opened as a store: %v", err)
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
