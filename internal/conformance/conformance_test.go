package conformance

import (
	"reflect"
	"testing"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/rt"
)

// TestConformanceMatrix is the engine's primary assertion: every registered
// workload, under both the CC algorithm and the 2PC baseline, restarts from
// a checkpoint taken at every sweep point into a state bitwise-identical to
// an uninterrupted run. In -short mode the matrix is thinned to one
// representative workload per algorithm.
func TestConformanceMatrix(t *testing.T) {
	opts := Options{
		Verbose: testing.Verbose(),
		Logf:    t.Logf,
	}
	if testing.Short() {
		opts.Workloads = []string{"comd"}
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	skips := 0
	for i := range m.Cases {
		c := &m.Cases[i]
		if c.Skipped {
			skips++
			continue
		}
		if len(c.Triggers) < 8 {
			t.Errorf("%s/%s: only %d trigger points (want >= 8)", c.Workload, c.Algorithm, len(c.Triggers))
		}
		captures := 0
		for _, tr := range c.Triggers {
			if tr.CaptureVT > 0 {
				captures++
			}
		}
		if captures < 8 {
			t.Errorf("%s/%s: only %d triggers actually captured", c.Workload, c.Algorithm, captures)
		}
	}
	if m.Failed() {
		t.Fatalf("conformance failures:\n%s", m.String())
	}
	if !testing.Short() {
		// The only skip in the full matrix must be the paper's "NA" cell.
		if skips != 1 {
			t.Errorf("expected exactly one skipped case (poisson/2pc), got %d", skips)
		}
		wantCases := len(apps.Names) * 2
		if len(m.Cases) != wantCases {
			t.Errorf("matrix has %d cases, want %d", len(m.Cases), wantCases)
		}
	}
}

// auxVerdict runs VerifyAuxSuite over one mid-run capture of wl under algo
// with the given checks selected and fails t unless it returns exactly want
// verdicts and the one called name passed.
func auxVerdict(t *testing.T, wl, algo string, negative, crossgeo bool, want int, name string) {
	t.Helper()
	verdicts, err := VerifyAuxSuite(wl, algo, Options{Logf: t.Logf}, negative, crossgeo)
	if err != nil {
		t.Fatalf("%s/%s: %v", wl, algo, err)
	}
	if len(verdicts) != want {
		t.Fatalf("%s/%s: %d verdicts, want %d", wl, algo, len(verdicts), want)
	}
	for _, v := range verdicts {
		if v.Name != name {
			continue
		}
		if v.Err != nil {
			t.Fatalf("%s/%s %s: %v", wl, algo, v.Name, v.Err)
		}
		return
	}
	t.Fatalf("%s/%s: no %q verdict", wl, algo, name)
}

// TestCorruptionDetected is the engine's negative control: an intentionally
// corrupted restore must surface as a restore error or a digest mismatch —
// never as a clean pass.
func TestCorruptionDetected(t *testing.T) {
	auxVerdict(t, "comd", rt.AlgoCC, true, false, 2, "negative")
}

// TestCrossGeometryRestart: the allocation-chaining sweep — a checkpoint
// captured at one PPN restarts onto packed, spread, and halved placements
// and must hit the golden digest on each. The capture is shared with the
// negative checks, as ccverify shares it, so all three verdicts come back.
func TestCrossGeometryRestart(t *testing.T) {
	auxVerdict(t, "comd", rt.AlgoCC, true, true, 3, "cross-geometry")
	if !testing.Short() {
		auxVerdict(t, "vasp", rt.Algo2PC, false, true, 1, "cross-geometry")
	}
}

// TestShardCorruptionDetected: a flipped byte inside a shard file must fail
// the load and be attributed to that rank's shard.
func TestShardCorruptionDetected(t *testing.T) {
	auxVerdict(t, "comd", rt.AlgoCC, true, false, 2, "shard-corruption")
}

// TestGoldenDigestDeterministic: the digest must be a pure function of the
// program, not of host scheduling — otherwise every comparison in the
// engine is noise.
func TestGoldenDigestDeterministic(t *testing.T) {
	o := Options{}
	o = o.withDefaults()
	r1, _, err := golden(&o, "lammps", rt.AlgoCC, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := golden(&o, "lammps", rt.AlgoCC, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StateDigest != r2.StateDigest {
		t.Fatalf("same program, different digests: %s vs %s", r1.StateDigest, r2.StateDigest)
	}
	if r1.RankSteps[0] != r2.RankSteps[0] {
		t.Fatalf("same program, different step counts: %d vs %d", r1.RankSteps[0], r2.RankSteps[0])
	}
}

// TestDigestCrossAlgorithm: the final state must not depend on which
// checkpointing algorithm interposed on the run.
func TestDigestCrossAlgorithm(t *testing.T) {
	o := Options{}
	o = o.withDefaults()
	cc, _, err := golden(&o, "comd", rt.AlgoCC, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	tp, _, err := golden(&o, "comd", rt.Algo2PC, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	native, _, err := golden(&o, "comd", rt.AlgoNative, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if cc.StateDigest != tp.StateDigest || cc.StateDigest != native.StateDigest {
		t.Fatalf("algorithms disagree on final state: cc=%.12s 2pc=%.12s native=%.12s",
			cc.StateDigest, tp.StateDigest, native.StateDigest)
	}
}

func TestSweepPoints(t *testing.T) {
	cases := []struct {
		steps      int64
		minT, maxT int
		wantLen    int // 0 = just check bounds
	}{
		{steps: 1, minT: 8, maxT: 16, wantLen: 0},
		{steps: 2, minT: 8, maxT: 16, wantLen: 1},
		{steps: 10, minT: 8, maxT: 16, wantLen: 9},  // exhaustive: 1..9
		{steps: 17, minT: 8, maxT: 16, wantLen: 16}, // exhaustive: 1..16
		{steps: 1000, minT: 8, maxT: 16},            // stratified
	}
	for _, c := range cases {
		pts := sweepPoints(c.steps, c.minT, c.maxT)
		if c.wantLen > 0 && len(pts) != c.wantLen {
			t.Errorf("sweepPoints(%d): got %d points, want %d", c.steps, len(pts), c.wantLen)
		}
		seen := map[int]bool{}
		prev := 0
		for _, p := range pts {
			if p < 1 || int64(p) >= c.steps {
				t.Errorf("sweepPoints(%d): point %d out of range", c.steps, p)
			}
			if p <= prev {
				t.Errorf("sweepPoints(%d): not strictly increasing at %d", c.steps, p)
			}
			if seen[p] {
				t.Errorf("sweepPoints(%d): duplicate point %d", c.steps, p)
			}
			seen[p] = true
			prev = p
		}
		if c.steps > 20 && len(pts) < c.minT {
			t.Errorf("sweepPoints(%d): %d points < min %d", c.steps, len(pts), c.minT)
		}
	}
}

// TestChain: every row of the chain table — whole-shard reuse, page deltas,
// content-defined chunks — restarts digest-identical from every sealed epoch
// of a FileStore chain, stores what its plan exists for, beats its baseline
// by the row's factor, attributes a damaged source and a dangling reference,
// and survives GC and compaction at the depth-1 read price. Under CC in
// -short mode; also under 2PC, and the incremental row on the churny comd
// (almost every shard rewrites, so no reuse is asked for and the damage,
// unseal and compaction steps run only on what reuse happens; digests,
// per-capture accounting and the stall gate must still hold), without it.
func TestChain(t *testing.T) {
	algos := []string{rt.AlgoCC}
	if !testing.Short() {
		algos = append(algos, rt.Algo2PC)
	}
	for _, leg := range ChainLegs() {
		for _, algo := range algos {
			t.Run(leg+"/"+algo, func(t *testing.T) {
				rpt, err := VerifyChain(leg, algo, Options{Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s chain: %s", leg, rpt)
			})
		}
	}
	if testing.Short() {
		return
	}
	t.Run("incremental-comd/"+rt.AlgoCC, func(t *testing.T) {
		row, err := chainRowOf("incremental")
		if err != nil {
			t.Fatal(err)
		}
		row.wl, row.stored, row.what = "comd", nil, ""
		o := (&Options{Logf: t.Logf}).withDefaults()
		rpt, err := verifyChain(&o, row, rt.AlgoCC)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("comd chain: %s", rpt)
	})
}

// TestFaultInjection: killing a rank mid-drain (crash and silent hang) and
// mid-capture (snapshot failure) must abort the run with attributable
// diagnostics — the coordinator's failure paths, not a wedge.
func TestFaultInjection(t *testing.T) {
	verdicts, err := VerifyFaultInjection("comd", rt.AlgoCC, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 3 {
		t.Fatalf("expected 3 probes, got %d", len(verdicts))
	}
	for _, v := range verdicts {
		if v.Err != nil {
			t.Errorf("%s: %v", v.Name, v.Err)
		} else {
			t.Logf("%s: %s", v.Name, v.OK)
		}
	}
}

// TestStragglerConformance: the straggler workload (registered outside the
// Table-1 names) must itself pass the checkpoint-anywhere sweep — its done
// ranks make it the one workload whose captures routinely carry ParkDone
// shards.
func TestStragglerConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full trigger sweep; run without -short")
	}
	cr, err := RunCase("straggler", rt.AlgoCC, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Failed() {
		m := MatrixResult{Cases: []CaseResult{*cr}}
		t.Fatalf("straggler conformance failures:\n%s", m.String())
	}
}

// TestSkipsNA: the 2PC x non-blocking-collectives cell must be skipped, not
// failed (the paper's Table 1 "NA").
func TestSkipsNA(t *testing.T) {
	cr, err := RunCase("poisson", rt.Algo2PC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Skipped {
		t.Fatal("poisson/2pc should be skipped")
	}
}

// normalized returns img with every empty slice nil, the one difference a
// serialization round trip is allowed to make.
func normalized(img *ckpt.JobImage) *ckpt.JobImage {
	out := *img
	out.Images = append([]ckpt.RankImage(nil), img.Images...)
	for i := range out.Images {
		ri := &out.Images[i]
		if len(ri.App) == 0 {
			ri.App = nil
		}
		if len(ri.Proto) == 0 {
			ri.Proto = nil
		}
		if len(ri.Desc.Recvs) == 0 {
			ri.Desc.Recvs = nil
		}
		ri.Inflight = append([]mpi.InflightSnapshot(nil), ri.Inflight...)
		for k := range ri.Inflight {
			if len(ri.Inflight[k].Data) == 0 {
				ri.Inflight[k].Data = nil
			}
		}
	}
	return &out
}

// TestStoreRoundTrip: a store epoch is lossless. For every registered app
// under CC and 2PC, a mid-run capture → CommitCapture → LoadJobImage returns
// the captured JobImage field for field — geometry, App, Proto, every
// in-flight payload, the park descriptor with its pending receives, and the
// clocks, which travel in the manifest rather than in the shards.
func TestStoreRoundTrip(t *testing.T) {
	o := (&Options{}).withDefaults()
	var parks, inflight, recvs int
	for _, wl := range append(append([]string(nil), apps.Names...), "straggler") {
		for _, algo := range []string{rt.AlgoCC, rt.Algo2PC} {
			if notRunnable(wl, algo) != nil {
				continue // the paper's NA cell
			}
			_, _, capture, err := captureMidRun(&o, wl, algo)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, algo, err)
			}
			image := capture.Image
			store := ckpt.NewMemStore()
			if _, _, err := ckpt.CommitCapture(store, 0, nil, image); err != nil {
				t.Fatalf("%s/%s: commit: %v", wl, algo, err)
			}
			got, err := ckpt.LoadJobImage(store, 0)
			if err != nil {
				t.Fatalf("%s/%s: load: %v", wl, algo, err)
			}
			want := normalized(image)
			if got = normalized(got); !reflect.DeepEqual(got, want) {
				for r := range want.Images {
					if !reflect.DeepEqual(got.Images[r], want.Images[r]) {
						t.Errorf("%s/%s rank %d changed:\ngot  %+v\nwant %+v", wl, algo, r, got.Images[r].Desc, want.Images[r].Desc)
					}
				}
				t.Fatalf("%s/%s: round trip changed the image (header got %s %d/%d vt %v pad %d)", wl, algo,
					got.Algorithm, got.Ranks, got.PPN, got.CaptureVT, got.PaddedBytesPerRank)
			}
			for r := range want.Images {
				ri := &want.Images[r]
				if ri.Desc.Kind != ckpt.ParkDone {
					parks++
				}
				inflight += len(ri.Inflight)
				recvs += len(ri.Desc.Recvs)
			}
		}
	}
	// The sweep must have carried what a round trip can lose.
	if parks == 0 || inflight == 0 || recvs == 0 {
		t.Fatalf("captures held %d mid-run parks, %d in-flight messages, %d pending receives: nothing of one kind crossed the store", parks, inflight, recvs)
	}
}
