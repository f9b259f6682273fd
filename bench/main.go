// Command bench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output it produces, and
// prints its metrics: the end-to-end metrics by default, the per-layer
// breakdown with --trace 1. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 3210.5, "unit": "ms"}, ...}}
//
// Run it from the repository root through bench/run.sh, which builds
// it first:
//
//	bash bench/run.sh --workload registry-full --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh compare base.jsonl new.jsonl
//
// Workloads (see README.md for why each exists):
//
//	registry-full  harness.RunAllContext over the full registry, one child process per rep
//	hpl-192        cluster.Tibidabo(192) + hpl.Run, one child process per rep
//	serve-cold     mhpcd under cycles of open- and closed-loop load, every request a store miss
//	serve-hot      the same client over 16 pre-computed keys, every request a store hit
//
// The exit code is 0 only when every operation succeeded and every
// output matched its expected bytes or pinned values.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order. Every
// workload reports each of them; BENCHMARK.json lists the same names
// and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A metric a workload
// cannot observe reads 0 (README.md says which).
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_frac", "frac"},
	{"runtime.sched_cpu_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"mpi.msgs", "count"},
	{"mpi.bytes", "bytes"},
	{"mpi.cpu_frac", "frac"},
	{"interconnect.cpu_frac", "frac"},
	{"apps.hpl_ms", "ms"},
	{"apps.cpu_frac", "frac"},
	{"linalg.cpu_frac", "frac"},
	{"cluster.build_ms", "ms"},
	{"other.cpu_frac", "frac"},
	{"harness.tasks", "count"},
	{"harness.pool_util", "frac"},
	{"harness.exp_s.fig6", "s"},
	{"harness.exp_s.hpl-grid", "s"},
	{"harness.exp_s.faultsweep", "s"},
	{"harness.exp_s.ablation-openmx", "s"},
	{"harness.exp_s.green500", "s"},
	{"faults.injected", "count"},
	{"reliability.mc_trials", "count"},
	{"faults.cpu_frac", "frac"},
	{"store.hit_ratio", "frac"},
	{"store.puts", "count"},
	{"store.bytes", "bytes"},
	{"mhpcd.accept_ms_p50", "ms"},
	{"mhpcd.job_ms_p50", "ms"},
	{"mhpcd.job_ms_p99", "ms"},
	{"mhpcd.runs", "count"},
	{"mhpcd.cache_hits", "count"},
	{"mhpcd.rejected", "count"},
	{"mhpcd.cpu_ms_per_req", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.sent", "count"},
	{"trace.overhead_frac", "frac"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where a traced run writes spans.json and CPU profiles
	buildDir string // binaries and scratch space, inside the checkout
	jobs     int    // harness pool size and client concurrency: one per CPU
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	setup             sample   // seconds per set-up
	ops               sample   // milliseconds per operation
	cycles            []sample // serve workloads: ops split by load cycle
	opsPerS           float64  // operations completed per second, closed loop
	peakRSSMB         float64
	layer             map[string]float64 // traced runs: per-layer metrics
}

// workload runs one named load for cfg.seconds and reports what it saw.
type workload func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workload{
	"registry-full": runBatch,
	"hpl-192":       runBatch,
	"serve-cold":    runServe,
	"serve-hot":     runServe,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// benchMain parses the flags, runs the workload and prints its report.
// It returns the process exit code.
func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "measured duration")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: want --workload {%s} --seed N --seconds S>0 --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		buildDir: ".bench_build", jobs: runtime.NumCPU(),
	}
	if cfg.trace {
		cfg.traceDir = fmt.Sprintf("%s/trace/%s", cfg.buildDir, *name)
		if err := os.RemoveAll(cfg.traceDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The workloads stop on their own after cfg.seconds; the deadline
	// only bounds a wedged run.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	out, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := report(cfg, out, stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one human-readable line per metric (with quartiles and
// the sample count where the metric summarises a sample) and returns
// the result object.
func report(cfg config, out *outcome, w io.Writer) result {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  jobs %d  attempted %d  failed %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.jobs, out.attempted, out.failed)
	put := func(d metricDef, v float64, detail string) {
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-30s %14.4f %-5s %s\n", d.name, v, d.unit, detail)
	}
	if cfg.trace {
		for _, d := range perLayer {
			put(d, out.layer[d.name], "")
		}
		fmt.Fprintf(w, "  spans and CPU profiles in %s\n", cfg.traceDir)
		return res
	}
	quart := func(s sample, scale float64) string {
		return fmt.Sprintf("(q1 %.4f, q3 %.4f, n=%d)", s.quantile(0.25)*scale, s.quantile(0.75)*scale, len(s))
	}
	tail, pct := out.ops.tail()
	tailDetail := fmt.Sprintf("(p%.1f, n=%d)", pct, len(out.ops))
	if t, ok := cycleTail(out.cycles); ok {
		tail = t
		tailDetail = fmt.Sprintf("(median of %d per-cycle p99s, n=%d)", len(out.cycles), len(out.ops))
	}
	for _, d := range endToEnd {
		switch d.name {
		case "setup_s":
			put(d, out.setup.median(), quart(out.setup, 1))
		case "p50_ms":
			put(d, out.ops.median(), quart(out.ops, 1))
		case "tail_ms":
			put(d, tail, tailDetail)
		case "ops_per_s":
			put(d, out.opsPerS, "")
		case "peak_rss_mb":
			put(d, out.peakRSSMB, "")
		}
	}
	return res
}
