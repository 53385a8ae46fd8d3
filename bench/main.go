// Command bench is the repository's performance benchmark: chains of
// allocation legs (restart from the newest sealed epoch, advance, seal the
// next epoch, exit) over four workloads, with end-to-end metrics measured
// untraced and per-layer metrics from a separate traced pass. README.md in
// this directory says what every number means; BENCHMARK.json at the root of
// the repository is the contract this program is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The run shape is fixed, not a flag; every bound assumes the same shape on
// both sides of a comparison. One proc, because on the two-vCPU host the
// sizes were settled on the run-to-run noise is the latency of waking the
// other vCPU: across runs the leg times followed a two-goroutine ping-pong
// loop (r = 0.8) and not a single-threaded hash or copy loop (r = 0), and at
// one proc the spread between runs halved (README.md has the numbers).
const (
	benchProcs = 1
	setupReps  = 3 // set-ups per run; setup_s is their median
)

// metricDef names one metric. bound is the share of the parent's median by
// which an end-to-end metric may get worse before it counts as a regression;
// per-layer metrics have none. BENCHMARK.json repeats this table and
// bench_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// result is one run of one workload.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  string
	metrics   map[string]float64
	lines     []string // the human-readable report
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// correct reports whether every operation succeeded and every metric is a
// finite number.
func (r *result) correct(defs []metricDef) bool {
	if r.failed > 0 || r.attempted < 1 {
		return false
	}
	for _, d := range defs {
		if v, ok := r.metrics[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// jsonLine renders the one-line result the driver reads.
func (r *result) jsonLine(defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(defs), r.attempted, r.failed, map[string]value{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1 // JSON has no NaN; correct is already false
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func hostRecord() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host: cpu %q, NumCPU %d, GOMAXPROCS %d, %s, commit %s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds   = flag.Float64("seconds", 16, "how long one run measures")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer pass in place of the end-to-end one")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice, order swapped, and hold the medians and spreads against the bounds")
		runs      = flag.Int("runs", 1, "with -selfcheck: seeds per workload and pass, starting at -seed")
	)
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)
	opts := options{seed: *seed, seconds: *seconds, trace: *trace != 0}

	defer os.RemoveAll(tmpRoot) // chains remove their own; this catches a failed one
	fmt.Println(hostRecord())

	if *selfcheck {
		if !selfCheck(opts, *runs) {
			return 1
		}
		return 0
	}
	set := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		set = []*workload{w}
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	code := 0
	for _, w := range set {
		r, err := runWorkload(w, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(strings.Join(r.lines, "\n"))
		if !r.correct(defs) {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed: %s\n", w.name, r.failed, r.attempted, r.firstErr)
			code = 1
		}
		fmt.Println(r.jsonLine(defs))
	}
	return code
}

// runWorkload is one run: set up, measure for opts.seconds, report.
func runWorkload(w *workload, opts options) (*result, error) {
	if opts.trace {
		return runTraced(w, opts)
	}
	return runEndToEnd(w, opts)
}

// selfCheck is the repeatability check the bounds are settled with. It runs
// the suite twice, the second time in reverse order, each (workload, seed) in
// a process of its own as the driver does: in one process a workload's times
// depend on what ran before it (vasp_coll ran 35 % slower once the storage
// workloads had grown the heap). Per (metric, workload) it prints both
// passes' medians over the seeds, how much worse the second is, and with
// four seeds or more each pass's spread: the distance between the quartiles
// as a share of the median. It fails if a median got worse by more than the
// metric's bound or a spread other than setup_s's exceeds it.
func selfCheck(opts options, runs int) bool {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	type key struct{ workload, metric string }
	passes := [2]map[key][]float64{{}, {}}
	ok := true
	for p := range passes {
		order := append([]*workload(nil), workloads...)
		if p == 1 {
			sort.SliceStable(order, func(i, j int) bool { return i > j })
		}
		for _, w := range order {
			start := time.Now()
			for r := 0; r < runs; r++ {
				cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(opts.seed+uint64(r)), "-seconds", fmt.Sprint(opts.seconds))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct bool
					Metrics map[string]struct{ Value float64 }
				}
				if err == nil {
					err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
				}
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: pass %d %s seed %d failed: %v\n", p+1, w.name, opts.seed+uint64(r), err)
					ok = false
					continue
				}
				for name, m := range res.Metrics {
					passes[p][key{w.name, name}] = append(passes[p][key{w.name, name}], m.Value)
				}
			}
			fmt.Printf("pass %d  %-14s %d runs in %.0f s\n", p+1, w.name, runs, time.Since(start).Seconds())
		}
	}
	fmt.Printf("%-28s %-14s %13s %13s %8s %7s %8s %8s\n", "metric", "workload", "first", "second", "worse", "bound", "spread1", "spread2")
	for _, d := range endToEnd {
		for _, w := range workloads {
			a, b := passes[0][key{w.name, d.name}], passes[1][key{w.name, d.name}]
			if len(a) == 0 || len(b) == 0 {
				continue // the failed runs are already reported
			}
			worse := (median(b) - median(a)) / math.Abs(median(a))
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := spreadOf(a), spreadOf(b)
			verdict := ""
			if worse > d.bound || d.name != "setup_s" && (sa > d.bound || sb > d.bound) {
				verdict, ok = "  FAIL", false
			}
			fmt.Printf("%-28s %-14s %13.6g %13.6g %+7.2f%% %6.1f%% %7.2f%% %7.2f%%%s\n",
				d.name, w.name, median(a), median(b), 100*worse, 100*d.bound, 100*sa, 100*sb, verdict)
		}
	}
	return ok
}
