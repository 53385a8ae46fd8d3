package main

import (
	"fmt"
	"runtime"
	"time"
)

// endToEnd is what a user of the system pays for, reported for every
// workload. Host times are medians over the pooled timed legs of the run's
// chains, in seconds of the nominal host (ref.go); the other metrics are
// functions of the seed and of how far the CC drain carried each leg.
// README.md says why each bound is what it is.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"leg_p50_s", "s", "lower", 0.25},
	{"restart_p50_s", "s", "lower", 0.25},
	{"ckpt_p50_s", "s", "lower", 0.25},
	{"cc_overhead_vt_pct", "%", "lower", 0.01},
	{"ckpt_write_vt_s", "vt_s", "lower", 0.01},
	{"restart_read_vt_s", "vt_s", "lower", 0.01},
	{"write_bytes_per_state_byte", "ratio", "lower", 0.1},
	{"store_bytes_per_live_byte", "ratio", "lower", 0.05},
	{"peak_encode_mb", "MB", "lower", 0.01},
	{"ops_ok_ratio", "ratio", "higher", 0.01},
}

// measured is the chains of one run.
type measured struct {
	chains []*chain
}

// measureChains runs whole chains, at least one, for as long as at least
// half of another fits in the seconds left: a run overshoots or undershoots
// --seconds by at most half a chain.
func measureChains(in *instance, seconds float64) (*measured, error) {
	m := &measured{}
	start := time.Now()
	var longest time.Duration
	for {
		t := time.Now()
		c, err := runChain(in, in.w.legs, nil)
		if err != nil {
			return nil, err
		}
		c.close()
		m.chains = append(m.chains, c)
		longest = max(longest, time.Since(t))
		if time.Since(start)+longest/2 > time.Duration(seconds*float64(time.Second)) {
			return m, nil
		}
	}
}

// perChain collects one sample per timed leg, grouped by chain.
func (m *measured) perChain(f func(*legSample) float64) [][]float64 {
	out := make([][]float64, len(m.chains))
	for i, c := range m.chains {
		for j := range c.legs {
			out[i] = append(out[i], f(&c.legs[j]))
		}
	}
	return out
}

// pooled collects one sample per timed leg of every chain.
func (m *measured) pooled(f func(*legSample) float64) []float64 {
	var out []float64
	m.each(func(s *legSample) { out = append(out, f(s)) })
	return out
}

// each calls f on every timed leg.
func (m *measured) each(f func(*legSample)) {
	for _, c := range m.chains {
		for j := range c.legs {
			f(&c.legs[j])
		}
	}
}

// tally adds the chains' operations to the result's counts.
func (m *measured) tally(r *result) {
	for _, c := range m.chains {
		r.attempted += c.attempted
		r.failed += c.misses
		if r.firstErr == "" {
			r.firstErr = c.firstErr
		}
	}
}

// runEndToEnd is the untraced run: set up setupReps times, measure chains
// for opts.seconds, report every end-to-end metric.
func runEndToEnd(w *workload, opts options) (*result, error) {
	r := &result{workload: w.name, metrics: map[string]float64{}}
	var (
		in                 *instance
		setups, setupsWall []float64
		readings           []float64 // of the reference kernel, around the set-ups
	)
	// A set-up is seconds long, so a reading beside it is three passes.
	reading := func() float64 {
		runtime.GC()
		return (refPass() + refPass() + refPass()) / 3
	}
	before := reading()
	for i := 0; i < setupReps; i++ {
		t, c := time.Now(), cpuSeconds()
		var err error
		if in, err = setUp(w, opts.seed); err != nil {
			return nil, err
		}
		used := cpuSeconds() - c
		setupsWall = append(setupsWall, time.Since(t).Seconds())
		after := reading()
		setups = append(setups, used*hostScale(before, after))
		readings = append(readings, before)
		before = after
	}
	m, err := measureChains(in, opts.seconds)
	if err != nil {
		return nil, err
	}
	m.tally(r)

	var writeVT, readVT, fresh, state, peak, n float64
	m.each(func(s *legSample) {
		writeVT += s.stats.WriteVT
		readVT += s.readVT
		fresh += float64(s.stats.FreshBytes)
		state += float64(s.stats.ImageBytes)
		peak = max(peak, float64(s.stats.PeakEncodeBytes))
		readings = append(readings, refNominal/s.scale)
		n++
	})
	first := m.chains[0]
	values := map[string]float64{
		"setup_s":                    median(setups),
		"cc_overhead_vt_pct":         100 * (in.ccVT - in.nativeVT) / in.nativeVT,
		"ckpt_write_vt_s":            writeVT / n,
		"restart_read_vt_s":          readVT / n,
		"write_bytes_per_state_byte": fresh / state,
		"store_bytes_per_live_byte":  float64(first.storeBytes) / float64(first.liveBytes),
		"peak_encode_mb":             peak / 1e6,
		"ops_ok_ratio":               float64(r.attempted-r.failed) / float64(r.attempted),
	}
	// The three leg times: scaled seconds are what is reported; CPU and
	// wall-clock seconds are printed beside them.
	type phase struct{ scaled, cpu, wall func(*legSample) float64 }
	phases := map[string]phase{
		"leg_p50_s": {
			func(s *legSample) float64 { return s.legCPU * s.scale },
			func(s *legSample) float64 { return s.legCPU },
			func(s *legSample) float64 { return s.leg }},
		"restart_p50_s": {
			func(s *legSample) float64 { return s.restartCPU * s.scale },
			func(s *legSample) float64 { return s.restartCPU },
			func(s *legSample) float64 { return s.restart }},
		"ckpt_p50_s": {
			func(s *legSample) float64 { return s.ckptCPU * s.scale },
			func(s *legSample) float64 { return s.ckptCPU },
			func(s *legSample) float64 { return s.ckpt }},
	}

	r.printf("workload %s  seed %d  %d chains of %d legs, %d steps each", w.name, opts.seed, len(m.chains), w.legs, w.steps)
	r.printf("  host times are CPU seconds scaled to a host where the reference kernel takes %.4g ms a pass; here it took %.4g ms (median of %d readings, %.4g to %.4g)",
		1e3*refNominal, 1e3*median(readings), len(readings), 1e3*quantile(readings, 0), 1e3*quantile(readings, 1))
	for _, d := range endToEnd {
		detail := ""
		if p, ok := phases[d.name]; ok {
			s := summarize(m.perChain(p.scaled))
			values[d.name] = s.median
			detail = fmt.Sprintf("  n=%d  chain medians q1 %.6g q3 %.6g  p%d %.6g  unscaled: cpu %.6g wall %.6g",
				s.n, s.chainQ1, s.chainQ3, s.tailPct, s.tail, median(m.pooled(p.cpu)), median(m.pooled(p.wall)))
		}
		if d.name == "setup_s" {
			detail = fmt.Sprintf("  n=%d  min %.6g max %.6g  unscaled: wall %.6g", len(setups), quantile(setups, 0), quantile(setups, 1), median(setupsWall))
		}
		r.metrics[d.name] = values[d.name]
		r.printf("  %-28s %12.6g %-6s%s", d.name, values[d.name], d.unit, detail)
	}
	return r, nil
}
