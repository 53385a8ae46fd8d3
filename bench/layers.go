package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/mpi"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// perLayer names the metrics of single layers, module by module. README.md
// says which end-to-end metric each should move, on which workload. They are
// reported by the traced pass and carry no bound.
var perLayer = []metricDef{
	{"netmodel.collexits_ns", "ns", "lower", 0},
	{"netmodel.p2pcost_ns", "ns", "lower", 0},
	{"netmodel.restart_read_cost_us", "us", "lower", 0},
	{"mpi.coll_calls_per_s", "calls/s", "higher", 0},
	{"mpi.p2p_calls_per_s", "calls/s", "higher", 0},
	{"mpi.world_build_ms", "ms", "lower", 0},
	{"rt.native_ns_per_call", "ns", "lower", 0},
	{"rt.restore_s_p50", "s", "lower", 0},
	{"rt.advance_s_p50", "s", "lower", 0},
	{"rt.sim_calls_per_s", "calls/s", "higher", 0},
	{"rt.leg_tail_s", "s", "lower", 0},
	{"rt.alloc_bytes_per_state_byte", "ratio", "lower", 0},
	{"rt.trace_overhead_pct", "%", "lower", 0},
	{"rt.leg_unaccounted_pct", "%", "lower", 0},
	{"rt.leg_cpu_s_p50", "s", "lower", 0},
	{"rt.leg_wall_s_p50", "s", "lower", 0},
	{"rt.ref_pass_ms_p50", "ms", "lower", 0},
	{"core.cc_ns_per_call", "ns", "lower", 0},
	{"core.drain_vt_ms_p50", "vt_ms", "lower", 0},
	{"core.target_updates_per_ckpt", "count", "lower", 0},
	{"core.drain_tests_per_ckpt", "count", "lower", 0},
	{"core.parked_in_wait_share", "ratio", "lower", 0},
	{"twopc.ns_per_call", "ns", "lower", 0},
	{"twopc.overhead_vt_pct", "%", "lower", 0},
	{"twopc.barriers_per_coll", "ratio", "lower", 0},
	{"apps.snapshot_mb_per_s", "MB/s", "higher", 0},
	{"apps.restore_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.capture_s_p50", "s", "lower", 0},
	{"ckpt.commit_s_p50", "s", "lower", 0},
	{"ckpt.hash_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.commit_stream_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.store_put_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.load_s_p50", "s", "lower", 0},
	{"ckpt.load_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.verify_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.codec_flate_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.codec_none_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.memcpy_mb_per_s", "MB/s", "higher", 0},
	{"ckpt.fresh_shard_share", "ratio", "lower", 0},
	{"ckpt.delta_shard_share", "ratio", "higher", 0},
	{"ckpt.cdc_shard_share", "ratio", "higher", 0},
	{"ckpt.chunk_reuse_ratio", "ratio", "higher", 0},
	{"ckpt.read_set_epochs", "count", "lower", 0},
	{"ckpt.manifest_kb", "KB", "lower", 0},
	{"ckpt.compact_s", "s", "lower", 0},
	{"ckpt.gc_s", "s", "lower", 0},
	{"ckpt.gc_reclaimed_share", "ratio", "higher", 0},
}

// Each isolated call is looped for isolatedSlice and timed isolatedReps
// times; the median is reported. The smoke test shortens them.
var (
	isolatedSlice = 250 * time.Millisecond
	isolatedReps  = 3
	osuIterations = 1500 // Allreduce calls per rank in one OSU run
)

const (
	osuRanks = 64
	osuPPN   = 32
)

// perCall loops f for isolatedSlice, isolatedReps times over, and returns the
// median seconds one call took.
func perCall(f func()) float64 {
	var reps []float64
	for r := 0; r < isolatedReps; r++ {
		runtime.GC() // the chains leave a large heap; keep its collection out of the loop
		n := 0
		start := time.Now()
		for time.Since(start) < isolatedSlice {
			f()
			n++
		}
		reps = append(reps, time.Since(start).Seconds()/float64(n))
	}
	return median(reps)
}

// mbPerS is the rate of moving bytes in the time one call of f takes.
func mbPerS(bytes int64, f func()) float64 {
	if bytes == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / perCall(f)
}

// runTraced is the per-layer pass: set up once, alternate untraced and
// traced chains for half the run, then time each layer's calls alone on what
// the last chain left behind.
func runTraced(w *workload, opts options) (*result, error) {
	r := &result{workload: w.name, metrics: map[string]float64{}}
	in, err := setUp(w, opts.seed)
	if err != nil {
		return nil, err
	}

	tr := &tracer{origin: time.Now()}
	var plain, traced, all measured
	var last *chain
	defer func() {
		if last != nil {
			last.close()
		}
	}()
	for start := time.Now(); ; {
		for _, t := range []*tracer{nil, tr} {
			c, err := runChain(in, w.legs, t)
			if err != nil {
				return nil, err
			}
			if last != nil {
				last.close()
			}
			last = c
			if t == nil {
				plain.chains = append(plain.chains, c)
			} else {
				traced.chains = append(traced.chains, c)
			}
			all.chains = append(all.chains, c)
		}
		if time.Since(start).Seconds() > opts.seconds/2 {
			break
		}
	}
	all.tally(r)
	tr.selfTimes()
	path, err := tr.write(w.name, opts.seed)
	if err != nil {
		return nil, err
	}

	m := r.metrics
	legOf := func(s *legSample) float64 { return s.leg }
	plainLegs := summarize(plain.perChain(legOf))
	m["rt.restore_s_p50"] = median(tr.durations("rt.restore"))
	m["rt.advance_s_p50"] = median(tr.durations("rt.advance"))
	m["rt.leg_tail_s"] = plainLegs.tail
	m["rt.sim_calls_per_s"] = median(all.pooled(func(s *legSample) float64 { return float64(s.calls) / s.advance }))
	m["rt.trace_overhead_pct"] = 100 * (median(traced.pooled(legOf))/plainLegs.median - 1)
	m["rt.leg_unaccounted_pct"] = 100 * tr.unaccounted()
	// What the end-to-end leg time is scaled from: the untraced legs in CPU
	// and in wall-clock seconds, and the reference kernel's reading.
	m["rt.leg_cpu_s_p50"] = median(plain.pooled(func(s *legSample) float64 { return s.legCPU }))
	m["rt.leg_wall_s_p50"] = plainLegs.median
	m["rt.ref_pass_ms_p50"] = 1e3 * median(all.pooled(func(s *legSample) float64 { return refNominal / s.scale }))
	// The restart, advance and checkpoint spans must explain the leg.
	r.attempted++
	if !(m["rt.leg_unaccounted_pct"] <= 5) {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = "the traced phases leave more than 5 % of the leg unaccounted for"
		}
	}
	m["ckpt.load_s_p50"] = median(tr.durations("ckpt.LoadJobImage"))
	m["ckpt.load_mb_per_s"] = median(traced.pooled(func(s *legSample) float64 { return float64(s.loadBytes) / 1e6 / s.loadS }))

	statsOf(&all, in, m)
	lifecycleOf(&all, m)
	if err := isolated(in, last, m); err != nil {
		return nil, err
	}

	r.printf("workload %s  seed %d  traced pass: %d untraced and %d traced chains of %d legs; %d spans in %s",
		w.name, opts.seed, len(plain.chains), len(traced.chains), w.legs, len(tr.spans), path)
	for _, d := range perLayer {
		r.printf("  %-32s %14.6g  %s", d.name, m[d.name], d.unit)
	}
	return r, nil
}

// statsOf fills the metrics that the legs' CheckpointStats carry.
func statsOf(all *measured, in *instance, m map[string]float64) {
	var (
		capture, commit, drain    []float64
		updates, tests, inWait, n float64
		fresh, reused, delta, cdc float64
		allocated, state          float64
	)
	all.each(func(s *legSample) {
		st := &s.stats
		capture = append(capture, st.CaptureHostSeconds)
		commit = append(commit, st.CommitHostSeconds)
		drain = append(drain, 1e3*st.DrainVT)
		updates += float64(st.TargetUpdatesSent)
		tests += float64(st.DrainTests)
		inWait += float64(st.ParkedInWait)
		fresh += float64(st.FreshShards)
		reused += float64(st.ReusedShards)
		delta += float64(st.DeltaShards)
		cdc += float64(st.CDCShards)
		allocated += float64(s.allocBytes)
		state += float64(st.ImageBytes)
		n++
	})
	m["ckpt.capture_s_p50"] = median(capture)
	m["ckpt.commit_s_p50"] = median(commit)
	m["core.drain_vt_ms_p50"] = median(drain)
	m["core.target_updates_per_ckpt"] = updates / n
	m["core.drain_tests_per_ckpt"] = tests / n
	m["core.parked_in_wait_share"] = inWait / (n * float64(in.w.ranks))
	m["ckpt.fresh_shard_share"] = fresh / (fresh + reused)
	m["ckpt.delta_shard_share"] = delta / (fresh + reused)
	m["ckpt.cdc_shard_share"] = cdc / (fresh + reused)
	m["rt.alloc_bytes_per_state_byte"] = allocated / state
}

// lifecycleOf fills the driver-side compaction and GC metrics; they stay zero
// on a workload without a lifecycle.
func lifecycleOf(all *measured, m map[string]float64) {
	var compact, gc []float64
	var reclaimed, held float64
	for _, c := range all.chains {
		compact = append(compact, c.compactS...)
		gc = append(gc, c.gcS...)
		reclaimed += float64(c.gcReclaimed)
		held += float64(c.gcHeld)
	}
	m["ckpt.compact_s"], m["ckpt.gc_s"], m["ckpt.gc_reclaimed_share"] = 0, 0, 0
	if len(compact) > 0 {
		m["ckpt.compact_s"], m["ckpt.gc_s"] = median(compact), median(gc)
		m["ckpt.gc_reclaimed_share"] = reclaimed / held
	}
}

type discardCloser struct{}

func (discardCloser) Write(p []byte) (int, error) { return len(p), nil }
func (discardCloser) Close() error                { return nil }

// isolated times each layer's calls alone. The storage calls work on what
// the last chain left: its store, its newest manifest, the image its last
// leg captured and the apps that leg parked.
func isolated(in *instance, c *chain, m map[string]float64) error {
	if c.newest == nil || c.lastImage == nil {
		return nil // the chain failed; its misses are already counted
	}
	w := in.w
	img, man := c.lastImage, c.newest

	// netmodel
	osuModel := netmodel.New(netmodel.PerlmutterLike(), osuPPN)
	world := make([]int, osuRanks)
	for i := range world {
		world[i] = i
	}
	spec := netmodel.CollSpec{Kind: netmodel.Allreduce, Size: 8, Geom: osuModel.GeometryOf(world), WorldRanks: world}
	entries := make([]float64, osuRanks)
	m["netmodel.collexits_ns"] = 1e9 * perCall(func() { sink = osuModel.CollExits(spec, entries)[0] })
	m["netmodel.p2pcost_ns"] = 1e9 * perCall(func() { sink = osuModel.P2PCost(0, osuRanks-1, 8) })
	reads := ckpt.ReadSetOf(man)
	m["netmodel.restart_read_cost_us"] = 1e6 * perCall(func() {
		sink = in.model.RestartReadCost(netmodel.StorageTier(man.Tier), reads, in.nodes)
	})

	// mpi, rt, core, twopc: the OSU loops, one call path per algorithm
	m["mpi.world_build_ms"] = 1e3 * perCall(func() { mpi.NewWorld(osuRanks, osuModel) })
	allreduce := func(int) rt.App {
		return apps.NewOSU(apps.OSUConfig{Kind: netmodel.Allreduce, Size: 8, Iterations: osuIterations})
	}
	pingpong := func(int) rt.App { return apps.NewOSUP2P(apps.OSUP2PConfig{Size: 8, Iterations: 10 * osuIterations}) }
	osu := map[string]float64{} // host seconds per simulated call
	for _, loop := range []struct {
		name, algo string
		factory    func(int) rt.App
	}{
		{"native", rt.AlgoNative, allreduce},
		{"p2p", rt.AlgoNative, pingpong},
		{"cc", rt.AlgoCC, allreduce},
		{"2pc", rt.Algo2PC, allreduce},
	} {
		var reps []float64
		for r := 0; r < isolatedReps; r++ {
			runtime.GC()
			start := time.Now()
			rep, err := rt.Run(rt.Config{Ranks: osuRanks, PPN: osuPPN, Params: netmodel.PerlmutterLike(), Algorithm: loop.algo}, loop.factory)
			if err != nil {
				return fmt.Errorf("osu %s loop: %w", loop.name, err)
			}
			reps = append(reps, time.Since(start).Seconds()/float64(rep.Counters.CollCalls()+rep.Counters.P2PCalls()))
		}
		osu[loop.name] = median(reps)
	}
	m["mpi.coll_calls_per_s"], m["rt.native_ns_per_call"] = 1/osu["native"], 1e9*osu["native"]
	m["mpi.p2p_calls_per_s"] = 1 / osu["p2p"]
	m["core.cc_ns_per_call"], m["twopc.ns_per_call"] = 1e9*osu["cc"], 1e9*osu["2pc"]

	// twopc: the comparator, on this workload's own program
	rep, err := rt.Run(in.config(rt.Algo2PC, nil), in.factory)
	if err != nil {
		return err
	}
	m["twopc.overhead_vt_pct"] = 100 * (rep.RuntimeVT - in.nativeVT) / in.nativeVT
	m["twopc.barriers_per_coll"] = float64(rep.Counters.Barriers2PC) / float64(rep.Counters.CollCalls())

	// apps: serialize and rebuild every rank's state
	var appBytes int64
	for i := range img.Images {
		appBytes += int64(len(img.Images[i].App))
	}
	var appErr error
	m["apps.snapshot_mb_per_s"] = mbPerS(appBytes, func() {
		for _, a := range c.lastApps {
			if err := a.App.(rt.StreamSnapshotter).SnapshotTo(io.Discard); err != nil {
				appErr = err
			}
		}
	})
	m["apps.restore_mb_per_s"] = mbPerS(appBytes, func() {
		for i, a := range c.lastApps {
			if err := a.App.Restore(img.Images[i].App); err != nil {
				appErr = err
			}
		}
	})
	if appErr != nil {
		return appErr
	}

	// ckpt: hash, commit, store write, verify, codecs
	hash := ckpt.HashCapture
	switch {
	case w.plan.CDC:
		hash = ckpt.HashCaptureCDC
	case w.plan.Delta:
		hash = func(img *ckpt.JobImage) (*ckpt.ShardSums, error) {
			return ckpt.HashCapturePaged(img, ckpt.ShardPageBytes)
		}
	}
	var sums *ckpt.ShardSums
	var ckptErr error
	m["ckpt.hash_mb_per_s"] = mbPerS(img.TotalBytes(), func() {
		if sums, err = hash(img); err != nil {
			ckptErr = err
		}
	})
	if ckptErr != nil {
		return ckptErr
	}
	var parent *ckpt.Manifest
	if man.Parent >= 0 {
		parent, _ = c.store.GetManifest(man.Parent) // a collected parent leaves a full commit to time
	}
	m["ckpt.commit_stream_mb_per_s"] = mbPerS(img.TotalBytes(), func() {
		if _, _, err := ckpt.CommitStreamed(ckpt.NewMemStore(), man.Epoch, parent, img, sums, nil); err != nil {
			ckptErr = err
		}
	})
	if ckptErr != nil {
		return ckptErr
	}

	var blobs [][]byte
	var stored int64
	for i := range man.Shards {
		if sh := &man.Shards[i]; sh.RefEpoch == man.Epoch {
			blob, err := c.store.GetShard(man.Epoch, sh.Rank)
			if err != nil {
				return err
			}
			blobs = append(blobs, blob)
			stored += int64(len(blob))
		}
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "put-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	files, err := ckpt.NewFileStore(dir)
	if err != nil {
		return err
	}
	m["ckpt.store_put_mb_per_s"] = mbPerS(stored, func() {
		for rank, blob := range blobs {
			dst, err := files.PutShardStream(0, rank)
			if err == nil {
				if _, err = dst.Write(blob); err != nil {
					ckptErr = err
				}
				err = dst.Close()
			}
			if err != nil {
				ckptErr = err
			}
		}
	})
	m["ckpt.verify_mb_per_s"] = mbPerS(c.storeBytes, func() {
		if faults, err := ckpt.VerifyStore(c.store); err != nil || len(faults) > 0 {
			ckptErr = err
		}
	})
	if ckptErr != nil {
		return ckptErr
	}

	ri := &img.Images[0]
	for _, codec := range []ckpt.Codec{ckpt.FlateCodec(0), ckpt.NoneCodec()} {
		m["ckpt.codec_"+codec.Name()+"_mb_per_s"] = mbPerS(ri.Bytes(), func() {
			sw, err := ckpt.NewShardWriterCodec(0, discardCloser{}, codec, 0, false)
			if err == nil {
				if err = sw.Encode(ri, true); err == nil {
					_, err = sw.Close()
				}
			}
			if err != nil {
				ckptErr = err
			}
		})
	}
	scratch := make([]byte, len(ri.App))
	m["ckpt.memcpy_mb_per_s"] = mbPerS(int64(len(ri.App)), func() { copy(scratch, ri.App) })

	// ckpt: what the newest manifest says about the chain
	var refs, reusedRefs float64
	for i := range man.Shards {
		for _, ch := range man.Shards[i].Chunks {
			refs++
			if ch.SrcEpoch != man.Epoch {
				reusedRefs++
			}
		}
	}
	m["ckpt.chunk_reuse_ratio"] = 0
	if refs > 0 {
		m["ckpt.chunk_reuse_ratio"] = reusedRefs / refs
	}
	m["ckpt.read_set_epochs"] = float64(len(reads))
	rec, err := ckpt.EncodeManifestRecord(man)
	if err != nil {
		return err
	}
	m["ckpt.manifest_kb"] = float64(len(rec)) / 1e3
	return ckptErr
}

// sink keeps the compiler from dropping a timed call whose result is unused.
var sink float64
