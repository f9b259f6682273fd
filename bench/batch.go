package main

// The two batch workloads. Each rep runs in a fresh child process (the
// bench binary re-executed as "bench child"), which is what a user of
// `mhpc all` or `mhpc hpl` waits for: process start, then one run.
// Set-up time is the time from exec to the child's "ready" line, and
// the peak RSS is the child's. A traced run alternates traced and
// untraced reps, so the tracing overhead is measured within one run.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"mobilehpc/internal/apps/hpl"
	"mobilehpc/internal/cluster"
	"mobilehpc/internal/harness"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
)

// goldenFull is the full-registry output every registry-full rep must
// reproduce byte for byte, relative to the repository root.
const goldenFull = "internal/harness/testdata/golden-full.txt"

// hplNodes and hplWant pin the hpl-192 rep: the 192-node Tibidabo at
// the paper's memory-filling problem size. Every simulated result field
// must match exactly; the simulation is deterministic.
const hplNodes = 192

var hplWant = hpl.Result{
	N:          int(8192 * math.Sqrt(hplNodes)),
	Nodes:      hplNodes,
	Elapsed:    5537.072367967112,
	GFLOPS:     176.09777484031386,
	Efficiency: 0.45858795531331736,
	Residual:   0.006649234527258874,
	Valid:      true,
}

// repReport is what a child prints as its last line.
type repReport struct {
	Err     string  `json:"err,omitempty"` // why the output was wrong; "" when correct
	RepMS   float64 `json:"rep_ms"`
	BuildMS float64 `json:"build_ms,omitempty"` // hpl-192: cluster.Tibidabo
	HPLMS   float64 `json:"hpl_ms,omitempty"`   // hpl-192: hpl.Run
	AllocMB float64 `json:"alloc_mb"`
	RSSMB   float64 `json:"rss_mb"` // VmHWM at the end of the rep
	// Traced reps only: the collector's counters (plus mpi.msgs and
	// mpi.bytes from the mpi.transfer_bytes histogram) and the wall
	// time of each experiment span.
	Counters map[string]int64   `json:"counters,omitempty"`
	ExpS     map[string]float64 `json:"exp_s,omitempty"`
}

// childMain runs one rep: "child <workload> <rep> [<trace prefix>]".
// It prints "ready" once set up, then the rep's JSON report. A negative
// rep is a set-up probe: the child exits once it is ready.
func childMain(args []string) int {
	if len(args) < 2 || len(args) > 3 {
		fmt.Fprintln(os.Stderr, "bench child: want <workload> <rep> [<trace prefix>]")
		return 2
	}
	name := args[0]
	repID, err := strconv.Atoi(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	var golden []byte
	switch name {
	case "registry-full":
		if golden, err = os.ReadFile(goldenFull); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
	case "hpl-192":
	default:
		fmt.Fprintf(os.Stderr, "bench child: unknown workload %q\n", name)
		return 2
	}

	var col *obs.Collector
	var prefix string
	if len(args) == 3 {
		prefix = args[2]
		col = obs.New()
		obs.SetActive(col)
		sim.SetDefaultObserver(obs.NewSimObserver(col))
		f, err := os.Create(prefix + ".pprof")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
	}
	fmt.Println("ready")
	if repID < 0 {
		return 0
	}

	var rep repReport
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	span := col.StartSpan("rep", "bench", obs.Int("req", int64(repID)))
	t0 := time.Now()
	switch name {
	case "registry-full":
		var buf bytes.Buffer
		if err := harness.RunAllContext(context.Background(), &buf, harness.Options{Jobs: runtime.NumCPU()}); err != nil {
			rep.Err = err.Error()
		} else if !bytes.Equal(buf.Bytes(), golden) {
			rep.Err = "output differs from " + goldenFull + ": " + firstDiff(buf.Bytes(), golden)
		}
	case "hpl-192":
		sp := col.StartSpan("cluster.build", "bench", obs.Int("req", int64(repID)))
		cl := cluster.Tibidabo(hplNodes)
		sp.End()
		rep.BuildMS = msSince(t0)
		t1 := time.Now()
		sp = col.StartSpan("hpl.Run", "bench", obs.Int("req", int64(repID)))
		got := hpl.Run(cl, hplNodes, hpl.Config{N: hplWant.N, RealN: 64})
		sp.End()
		rep.HPLMS = msSince(t1)
		if got != hplWant {
			rep.Err = fmt.Sprintf("hpl result %+v, want %+v", got, hplWant)
		}
	}
	rep.RepMS = msSince(t0)
	span.End()
	runtime.ReadMemStats(&ms1)
	rep.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	if rep.RSSMB, err = vmHWM("self"); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}

	if col != nil {
		pprof.StopCPUProfile()
		rep.Counters = col.Counters()
		if h := col.Histogram("mpi.transfer_bytes"); h != nil {
			rep.Counters["mpi.msgs"], rep.Counters["mpi.bytes"] = h.Count(), h.Sum()
		}
		rep.ExpS = map[string]float64{}
		for _, e := range col.BuildManifest().Experiments {
			rep.ExpS[e.ID] = e.WallSeconds
		}
		if err := writeFile(prefix+".spans.json", col.WriteChromeTrace); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// firstDiff names the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// childRun is one finished child process as the parent saw it.
type childRun struct {
	rep    repReport
	start  time.Time
	setup  time.Duration // exec to "ready"
	cpu    time.Duration // user + system time of the whole child
	prefix string        // trace file prefix; "" for an untraced rep
}

// runChild execs one rep (or, for rep < 0, a set-up probe) and waits
// for it.
func runChild(ctx context.Context, self, name string, rep int, prefix string) (childRun, error) {
	args := []string{"child", name, strconv.Itoa(rep)}
	if prefix != "" {
		args = append(args, prefix)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	run := childRun{prefix: prefix, start: time.Now()}
	if err := cmd.Start(); err != nil {
		return childRun{}, fmt.Errorf("starting child: %w", err)
	}
	br := bufio.NewReader(stdout)
	ready, readErr := br.ReadString('\n')
	run.setup = time.Since(run.start)
	rest, _ := io.ReadAll(br)
	waitErr := cmd.Wait()
	run.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	switch {
	case readErr != nil || ready != "ready\n":
		return run, fmt.Errorf("child %d never became ready: %v", rep, errors.Join(readErr, waitErr))
	case waitErr != nil:
		return run, fmt.Errorf("child %d: %w", rep, waitErr)
	case rep < 0:
		return run, nil
	}
	if err := json.Unmarshal(bytes.TrimSpace(rest), &run.rep); err != nil {
		return run, fmt.Errorf("child %d report: %w", rep, err)
	}
	return run, nil
}

// setupProbes is how many set-up probes a batch run starts before its
// reps, so that setup_s is a median over enough starts even when only
// a few reps fit in the run.
const setupProbes = 15

// runBatch runs the set-up probes, then child reps back to back until
// the next one would overrun cfg.seconds (at least one rep).
func runBatch(ctx context.Context, cfg config) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for k := 0; k < setupProbes; k++ {
		run, err := runChild(ctx, self, cfg.workload, -1-k, "")
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, run.setup.Seconds())
	}
	var runs []childRun
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= budget; i++ {
		prefix := ""
		if cfg.trace && i%2 == 0 {
			prefix = filepath.Join(cfg.traceDir, fmt.Sprintf("rep%03d", i))
		}
		t0 := time.Now()
		run, err := runChild(ctx, self, cfg.workload, i, prefix)
		last = time.Since(t0)
		out.attempted++
		if err == nil && run.rep.Err != "" {
			err = errors.New(run.rep.Err)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "bench: %s rep %d failed: %v\n", cfg.workload, i, err)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		runs = append(runs, run)
		out.setup = append(out.setup, run.setup.Seconds())
		out.ops = append(out.ops, run.rep.RepMS)
		out.peakRSSMB = max(out.peakRSSMB, run.rep.RSSMB)
	}
	out.opsPerS = float64(len(runs)) / time.Since(start).Seconds()
	if cfg.trace {
		layer, err := batchLayers(ctx, cfg, start, runs)
		if err != nil {
			return nil, err
		}
		out.layer = layer
	}
	return out, nil
}

// batchLayers reduces the traced reps to the per-layer metrics and
// writes the merged spans.json.
func batchLayers(ctx context.Context, cfg config, start time.Time, runs []childRun) (map[string]float64, error) {
	layer := map[string]float64{}
	var tracedMS, plainMS sample
	var profiles, spanFiles []string
	var offsets []time.Duration
	perRep := map[string]sample{}
	add := func(name string, v float64) { perRep[name] = append(perRep[name], v) }
	var cpu time.Duration
	var events float64
	for _, r := range runs {
		if r.prefix == "" {
			plainMS = append(plainMS, r.rep.RepMS)
			continue
		}
		tracedMS = append(tracedMS, r.rep.RepMS)
		profiles = append(profiles, r.prefix+".pprof")
		spanFiles = append(spanFiles, r.prefix+".spans.json")
		offsets = append(offsets, r.start.Sub(start)+r.setup)
		cpu += r.cpu
		c := r.rep.Counters
		events += float64(c["sim.events.dispatched"])
		add("sim.events", float64(c["sim.events.dispatched"]))
		add("mpi.msgs", float64(c["mpi.msgs"]))
		add("mpi.bytes", float64(c["mpi.bytes"]))
		add("harness.tasks", float64(c["pool.tasks"]))
		add("faults.injected", float64(c["faults.injected"]))
		add("reliability.mc_trials", float64(c["mc.trials"]))
		add("runtime.alloc_mb", r.rep.AllocMB)
		add("apps.hpl_ms", r.rep.HPLMS)
		add("cluster.build_ms", r.rep.BuildMS)
		var busy float64
		for id, s := range r.rep.ExpS {
			busy += s
			add("harness.exp_s."+id, s)
		}
		add("harness.pool_util", busy/(r.rep.RepMS/1e3*float64(cfg.jobs)))
	}
	for name, s := range perRep {
		layer[name] = s.median()
	}
	if len(plainMS) > 0 {
		layer["trace.overhead_frac"] = tracedMS.median()/plainMS.median() - 1
	}
	shares, err := cpuShares(ctx, profiles)
	if err != nil {
		return nil, err
	}
	for name, f := range shares {
		layer[name] = f
	}
	if events > 0 {
		layer["sim.ns_per_event"] = float64(cpu.Nanoseconds()) * shares["sim.cpu_frac"] / events
	}
	return layer, mergeSpans(filepath.Join(cfg.traceDir, "spans.json"), spanFiles, offsets)
}
