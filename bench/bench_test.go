package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// shrink makes every run a smoke run: shrunken workloads, one chain, and
// isolated calls that run once.
func shrink(t *testing.T) options {
	t.Helper()
	tmpRoot, outDir = filepath.Join(t.TempDir(), "stores"), filepath.Join(t.TempDir(), "out")
	isolatedSlice, isolatedReps, osuIterations = time.Millisecond, 1, 20
	return options{seed: 7, seconds: 0.01}
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) (spec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestManifestMatchesTables holds BENCHMARK.json and the Go tables together:
// same workloads with the same reasons, same metrics with the same unit,
// direction and bound, in the same order.
func TestManifestMatchesTables(t *testing.T) {
	spec := readManifest(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			want := manifestMetric{d.name, d.unit, d.better, 0}
			if bounded {
				want.Bound = d.bound
			}
			if listed[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the benchmark %+v", kind, i, listed[i], want)
			}
			if !name.MatchString(d.name) {
				t.Errorf("%s metric name %q is not made of letters, digits, _ . and -", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload shrunken, end to end and traced, and checks
// that every metric named in the tables comes out as a finite number with
// its unit, that nothing failed, and that the span file is well formed and
// its phases explain the leg.
func TestSmoke(t *testing.T) {
	opts := shrink(t)
	for _, full := range workloads {
		w := full.shrunk()
		for _, traced := range []bool{false, true} {
			opts.trace = traced
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			r, err := runWorkload(w, opts)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !r.correct(defs) {
				t.Errorf("%s (trace %v): %d of %d operations failed: %s", w.name, traced, r.failed, r.attempted, r.firstErr)
			}
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(r.jsonLine(defs)), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics in the result line, want %d", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := line.Metrics[d.name]
				if !ok || got.Value == nil || got.Unit != d.unit {
					t.Errorf("%s: metric %s missing or without its unit %q: %+v", w.name, d.name, d.unit, got)
				}
			}
		}
		checkSpanFile(t, w.name)
	}
}

func checkSpanFile(t *testing.T, workload string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(outDir, "trace-"+workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("%s: span file: %v", workload, err)
	}
	if file.Workload != workload || len(file.Spans) == 0 {
		t.Fatalf("%s: span file names %q and holds %d spans", workload, file.Workload, len(file.Spans))
	}
	byID := map[int]span{}
	for _, s := range file.Spans {
		byID[s.ID] = s
	}
	legs := 0
	for _, s := range file.Spans {
		if s.End < s.Start || s.Self < -1e-9 || s.Self > s.End-s.Start+1e-9 {
			t.Errorf("%s: span %d %s runs %g..%g with self time %g", workload, s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Name == "leg" {
			legs++
			if s.Parent != 0 {
				t.Errorf("%s: leg span %d has parent %d", workload, s.ID, s.Parent)
			}
			continue
		}
		if p, ok := byID[s.Parent]; !ok || p.Leg != s.Leg {
			t.Errorf("%s: span %d %s of leg %d has parent %d of leg %d", workload, s.ID, s.Name, s.Leg, s.Parent, p.Leg)
		}
	}
	if legs == 0 {
		t.Errorf("%s: no leg spans", workload)
	}
	tr := &tracer{spans: file.Spans}
	if u := tr.unaccounted(); !(u <= 0.05) {
		t.Errorf("%s: the phases leave %.1f %% of the leg unaccounted for", workload, 100*u)
	}
}

// TestSameSeedSameModel runs one workload twice with one seed: what depends
// on the seed alone must repeat exactly, and what also depends on how far
// the drain carried each leg must stay within its bound.
func TestSameSeedSameModel(t *testing.T) {
	opts := shrink(t)
	w, err := workloadByName("inplace_delta")
	if err != nil {
		t.Fatal(err)
	}
	a, err := runEndToEnd(w.shrunk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEndToEnd(w.shrunk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		va, vb := a.metrics[d.name], b.metrics[d.name]
		switch d.unit {
		case "s": // host time
		case "%":
			if va != vb {
				t.Errorf("%s: %v then %v with the same seed", d.name, va, vb)
			}
		default:
			if math.Abs(vb-va) > d.bound*math.Abs(va) {
				t.Errorf("%s: %v then %v with the same seed, bound %v", d.name, va, vb, d.bound)
			}
		}
	}
}

// TestHostScale checks the scaling of host times: a reading equal to the
// nominal pass leaves seconds as they are, a host twice as slow halves them,
// and a pass of the reference kernel uses CPU time.
func TestHostScale(t *testing.T) {
	if got := hostScale(refNominal, refNominal); got != 1 {
		t.Errorf("hostScale at the nominal reading = %v, want 1", got)
	}
	if got := hostScale(2*refNominal, 2*refNominal); got != 0.5 {
		t.Errorf("hostScale at twice the nominal reading = %v, want 0.5", got)
	}
	if got := refPass(); !(got > 0) {
		t.Errorf("refPass used %v CPU seconds", got)
	}
}

// TestSpreadIsPythons pins spreadOf to the value Python gives for
// (q3 - q1) / median with statistics.quantiles(values, n=4).
func TestSpreadIsPythons(t *testing.T) {
	got := spreadOf([]float64{3.1, 2.9, 3.5, 3.3, 2.7, 3.0, 3.2, 3.8, 2.8, 3.05})
	if want := 0.15447154471544702; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadOf = %v, want %v", got, want)
	}
}
