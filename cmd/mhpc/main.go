// Command mhpc drives the mobilehpc reproduction: it lists and runs
// the per-table/figure experiments of the paper and prints the same
// rows the paper reports.
//
// Usage:
//
//	mhpc list                  list experiment ids and titles
//	mhpc run [-quick] [-csv] [-j N] <id>...   run selected experiments
//	mhpc all [-quick] [-j N]   regenerate every table and figure
//	mhpc hpl [-nodes N] [-faults] [-fault-seed S] [-hours H]
//	                           run weak-scaled HPL on Tibidabo; -faults adds a
//	                           checkpointed production run with §6.1/§6.3 fault
//	                           injection from seed S (deterministic per seed)
//	mhpc trace [-nodes N]      traced run + Paraver/Scalasca-style analysis
//	mhpc tune [-n N]           ATLAS-style gemm block autotuning on this host
//
// run and all accept -j N to execute experiments on a worker pool of N
// goroutines (N a positive integer, or "auto" for one per CPU).
// Output is byte-identical at every -j; the MHPC_PARALLEL environment
// variable sets the default. Invalid values — zero, negative, or
// non-numeric — are rejected with an error rather than silently
// falling back to a default.
//
// run and all take -ckpt-dir DIR to make the invocation resumable:
// every finished sub-run and experiment is committed to a checkpoint
// ledger in DIR, and re-running the identical invocation after an
// interrupt (SIGINT or even SIGKILL) restores the committed tasks and
// executes only the unfinished ones — final output byte-identical to
// an uninterrupted run, at any -j. The ledger is deleted once
// a run completes.
//
// run and all also take the telemetry flags: -trace-out FILE writes a
// chrome://tracing JSON trace of the run, -report FILE writes a JSON
// run manifest, -v streams live per-experiment progress to stderr,
// -progress renders periodic run telemetry (simulated-event rate, task
// counts, task-latency p50/p99) to stderr, and -pprof ADDR serves
// net/http/pprof. All telemetry is out-of-band (stderr and files), so
// stdout stays byte-identical to a telemetry-off run.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served behind -pprof
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"mobilehpc/internal/cluster"
	"mobilehpc/internal/core"
	"mobilehpc/internal/faults"
	"mobilehpc/internal/harness"
	"mobilehpc/internal/linalg"
	"mobilehpc/internal/mpi"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/perf"
	"mobilehpc/internal/reliability"
	"mobilehpc/internal/sim"
	"mobilehpc/internal/store"
)

// defaultJobsSpec is the textual -j default: the MHPC_PARALLEL
// environment variable when set (validated by core.ParseJobs when the
// command runs, so garbage in the environment is an error, not a
// silent fallback), else "1" — the serial legacy path.
func defaultJobsSpec() string {
	if s, ok := os.LookupEnv("MHPC_PARALLEL"); ok {
		return s
	}
	return "1"
}

// ckptKey is the ledger identity of one CLI invocation: a truncated
// SHA-256 over the command, the experiment ids, and the
// output-shaping options. -j is deliberately absent — output is
// byte-identical at every parallelism, so a resume is free to change
// it.
func ckptKey(command string, ids []string, quick, csv bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%t\x00%t", command, quick, csv)
	for _, id := range ids {
		fmt.Fprintf(h, "\x00%s", id)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// openCkpt opens (or recovers) the -ckpt-dir ledger for this
// invocation and binds it to the command goroutine; the harness pool
// inherits the binding onto its workers, committing each finished
// sub-run and experiment as it goes. The returned settle func retires
// the ledger: on success the file is discarded (the full output was
// produced), on any failure — including a signal abort — it is kept
// so the next identical invocation resumes from the committed
// progress. A SIGKILL never reaches settle at all, which is fine:
// every committed line is already fsynced. Reporting goes to stderr;
// stdout stays byte-identical to a checkpoint-off run.
func openCkpt(dir, command string, ids []string, quick, csv bool) (settle func(err error), _ error) {
	led, err := store.OpenLedger(dir, ckptKey(command, ids, quick, csv))
	if err != nil {
		return nil, err
	}
	if led.Prior() > 0 {
		fmt.Fprintf(os.Stderr, "mhpc: ckpt: resuming from %d committed entries\n", led.Prior())
	}
	unbind := harness.BindLedger(led)
	return func(err error) {
		unbind()
		if err != nil {
			led.Close()
			fmt.Fprintf(os.Stderr, "mhpc: ckpt: kept %d committed entries for resume\n", led.Len())
			return
		}
		fmt.Fprintf(os.Stderr, "mhpc: ckpt: restored %d tasks from checkpoint, executed and committed %d\n",
			led.Hits(), led.Commits())
		led.Discard()
	}, nil
}

// commandContext returns a context cancelled by SIGINT/SIGTERM, so a
// long registry run aborts cleanly (engines unwind, goroutines
// drained, partial output suppressed) instead of dying mid-write. The
// second signal falls through to the default handler and kills the
// process.
func commandContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = list()
	case "run":
		err = run(os.Args[2:])
	case "all":
		err = all(os.Args[2:])
	case "hpl":
		err = runHPL(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	case "tune":
		err = runTune(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mhpc: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhpc:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mhpc list                        list experiments
  mhpc run [-quick] [-csv] [-j N] <id>... run selected experiments
  mhpc all [-quick] [-j N]         regenerate every table and figure
  mhpc hpl [-nodes N] [-faults] [-fault-seed S] [-hours H]
                                   weak-scaled HPL + Green500 metric; -faults
                                   adds a fault-injected checkpointed run
                                   (§6.1/§6.3), deterministic per -fault-seed
  mhpc trace [-nodes N] [-steps S] traced run with timeline + bottleneck analysis
  mhpc tune [-n N]                 ATLAS-style gemm autotuning on this host

-j N runs experiments on a pool of N workers (a positive integer, or
'auto' for one per CPU; default from MHPC_PARALLEL or 1); output is
byte-identical at every -j.

-ckpt-dir DIR commits every finished sub-run/experiment to a
checkpoint ledger in DIR; re-running the identical invocation after an
interrupt resumes from the committed progress (only unfinished work
re-executes, output byte-identical). The ledger is deleted on success.

run and all also accept the telemetry flags:
  -trace-out FILE   write a chrome://tracing JSON trace of the run
  -report FILE      write a JSON run manifest (wall times, counters, seeds)
  -v                live per-experiment progress on stderr
  -progress         periodic run telemetry (event rate, task latency) on stderr
  -pprof ADDR       serve net/http/pprof on ADDR (e.g. localhost:6060)
Telemetry is out-of-band (files/stderr); stdout stays byte-identical.`)
}

// telemetryFlags is the shared -trace-out/-report/-v/-progress/-pprof
// flag set of the run and all subcommands.
type telemetryFlags struct {
	traceOut  *string
	report    *string
	verbose   *bool
	progress  *bool
	pprofAddr *string
}

// addTelemetryFlags registers the telemetry flags on fs.
func addTelemetryFlags(fs *flag.FlagSet) *telemetryFlags {
	return &telemetryFlags{
		traceOut:  fs.String("trace-out", "", "write a chrome://tracing JSON trace to this file"),
		report:    fs.String("report", "", "write a JSON run manifest to this file"),
		verbose:   fs.Bool("v", false, "live per-experiment progress on stderr"),
		progress:  fs.Bool("progress", false, "periodic run telemetry (event rate, task latency quantiles) on stderr"),
		pprofAddr: fs.String("pprof", "", "serve net/http/pprof on this address"),
	}
}

// telemetry is one command's active telemetry session: the collector
// plus the export destinations to write when the run finishes.
type telemetry struct {
	c        *obs.Collector
	traceOut string
	report   string
	stop     chan struct{} // closes to stop the -progress renderer
	done     chan struct{} // the renderer closes this on exit
}

// startTelemetry wires up the run's observability: a collector when
// any exporter or -v is requested (installed process-wide and fed by
// the sim-engine observer hook), and the pprof server when -pprof is
// given. Returns nil (a no-op session) when no telemetry was asked
// for, so the instrumented fast paths stay disabled.
func startTelemetry(tf *telemetryFlags, command string, jobs int, quick bool) *telemetry {
	if *tf.pprofAddr != "" {
		addr := *tf.pprofAddr
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "mhpc: pprof server on %s: %v\n", addr, err)
			}
		}()
	}
	if *tf.traceOut == "" && *tf.report == "" && !*tf.verbose && !*tf.progress {
		return nil
	}
	c := obs.New()
	c.SetMeta("command", command)
	c.SetMeta("jobs", strconv.Itoa(jobs))
	c.SetMeta("quick", strconv.FormatBool(quick))
	c.SetMeta("experiments", strconv.Itoa(len(core.Experiments())))
	if *tf.verbose {
		c.SetVerbose(os.Stderr)
	}
	obs.SetActive(c)
	sim.SetDefaultObserver(obs.NewSimObserver(c))
	t := &telemetry{c: c, traceOut: *tf.traceOut, report: *tf.report}
	if *tf.progress {
		t.stop, t.done = make(chan struct{}), make(chan struct{})
		go progressLoop(c, t.stop, t.done)
	}
	return t
}

// progressLoop renders one stream delta to stderr every half second
// until stopped: simulated-event dispatch rate over the window,
// cumulative pool tasks, and the live task-latency p50/p99 from the
// pool.task_latency_ns histogram. Out-of-band by construction — it
// writes only to stderr, so stdout stays byte-identical.
func progressLoop(c *obs.Collector, stop, done chan struct{}) {
	defer close(done)
	stream := c.NewStream()
	var tasks, events int64
	emit := func(final bool) {
		d := stream.Delta()
		tasks += d.Counters["pool.tasks"]
		events += d.Counters["sim.events.dispatched"]
		var line string
		if final {
			line = fmt.Sprintf("mhpc: done t=%.2fs  %d sim events  tasks %d", d.WallSeconds, events, tasks)
		} else {
			line = fmt.Sprintf("mhpc: t=%5.1fs  %7.2fM events/s  tasks %d",
				d.WallSeconds, float64(d.Counters["sim.events.dispatched"])/d.IntervalSeconds/1e6, tasks)
		}
		if hd, ok := d.Histograms["pool.task_latency_ns"]; ok {
			line += fmt.Sprintf("  task p50 %v p99 %v",
				time.Duration(hd.P50).Round(10*time.Microsecond),
				time.Duration(hd.P99).Round(10*time.Microsecond))
		}
		fmt.Fprintln(os.Stderr, line)
	}
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			// Always leave a closing summary — short runs (quick registry
			// in well under a tick) would otherwise print nothing.
			emit(true)
			return
		case <-tick.C:
			emit(false)
		}
	}
}

// finish detaches the collector and writes the requested export
// files. Safe on a nil session.
func (t *telemetry) finish() error {
	if t == nil {
		return nil
	}
	if t.stop != nil {
		close(t.stop)
		<-t.done
	}
	sim.SetDefaultObserver(nil)
	obs.SetActive(nil)
	if t.traceOut != "" {
		if err := writeFileWith(t.traceOut, t.c.WriteChromeTrace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if t.report != "" {
		if err := writeFileWith(t.report, t.c.WriteManifest); err != nil {
			return fmt.Errorf("writing manifest: %w", err)
		}
	}
	return nil
}

// writeFileWith streams write(f) into path atomically
// (temp file + fsync + rename, via core.AtomicWriteFile), so a crash
// or write error mid-export can never leave a truncated JSON artifact
// where downstream tools (jsoncheck, chrome://tracing) would choke on
// it.
func writeFileWith(path string, write func(w io.Writer) error) error {
	return core.AtomicWriteFile(path, write)
}

func list() error {
	for _, e := range core.Experiments() {
		fmt.Printf("%-10s %-55s (%s)\n", e.ID, e.Title, e.Paper)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced node counts / steps")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	jobs := fs.String("j", defaultJobsSpec(), "worker pool size (a positive integer, or 'auto' = one per CPU)")
	ckptDir := fs.String("ckpt-dir", "", "checkpoint directory: commit finished sub-runs and resume an interrupted identical invocation")
	tf := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("run: need at least one experiment id (try 'mhpc list')")
	}
	j, err := core.ParseJobs(*jobs)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	var settle func(error)
	if *ckptDir != "" {
		if settle, err = openCkpt(*ckptDir, "run", fs.Args(), *quick, *csv); err != nil {
			return fmt.Errorf("run: %w", err)
		}
	}
	ctx, cancel := commandContext()
	defer cancel()
	tel := startTelemetry(tf, "run", j, *quick)
	tabs, err := harness.TablesContext(ctx, fs.Args(), harness.Options{Quick: *quick, Jobs: j})
	if ferr := tel.finish(); err == nil {
		err = ferr
	}
	if settle != nil {
		settle(err)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("run: aborted by signal: %w", err)
		}
		return err
	}
	for _, tab := range tabs {
		if *csv {
			if err := tab.CSV(os.Stdout); err != nil {
				return err
			}
		} else if err := tab.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func all(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced node counts / steps")
	jobs := fs.String("j", defaultJobsSpec(), "worker pool size (a positive integer, or 'auto' = one per CPU)")
	ckptDir := fs.String("ckpt-dir", "", "checkpoint directory: commit finished sub-runs and resume an interrupted identical invocation")
	tf := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	j, err := core.ParseJobs(*jobs)
	if err != nil {
		return fmt.Errorf("all: %w", err)
	}
	var settle func(error)
	if *ckptDir != "" {
		if settle, err = openCkpt(*ckptDir, "all", nil, *quick, false); err != nil {
			return fmt.Errorf("all: %w", err)
		}
	}
	ctx, cancel := commandContext()
	defer cancel()
	tel := startTelemetry(tf, "all", j, *quick)
	err = harness.RunAllContext(ctx, os.Stdout, harness.Options{Quick: *quick, Jobs: j})
	if ferr := tel.finish(); err == nil {
		err = ferr
	}
	if settle != nil {
		settle(err)
	}
	if err != nil && errors.Is(err, context.Canceled) {
		return fmt.Errorf("all: aborted by signal: %w", err)
	}
	return err
}

func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	nodes := fs.Int("nodes", 8, "Tibidabo nodes")
	steps := fs.Int("steps", 5, "time steps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := core.FirstError(
		core.PositiveInt("nodes", *nodes),
		core.PositiveInt("steps", *steps),
	); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	cl := cluster.Tibidabo(*nodes)
	grid := 2048
	cells := float64(grid) * float64(grid) / float64(*nodes)
	halo := grid * 8 * 4
	tr, end := mpi.RunTraced(cl, *nodes, func(r *mpi.Rank) {
		me := r.ID()
		for s := 0; s < *steps; s++ {
			r.AllreduceF64(1.0, math.Max)
			if r.Size() > 1 {
				up := (me + 1) % r.Size()
				down := (me - 1 + r.Size()) % r.Size()
				r.Send(up, 1, nil, halo)
				r.Send(down, 2, nil, halo)
				r.Recv(down, 1)
				r.Recv(up, 2)
			}
			r.ComputeWork(perf.Profile{
				Kernel: "hydro-step", Flops: cells * 110, Bytes: cells * 80,
				SIMDFraction: 0.8, Irregularity: 0.1,
				ParallelFraction: 0.98, Pattern: perf.Strided,
			}, 2)
		}
	})
	fmt.Printf("traced HYDRO-like run: %d nodes, %d steps, %.3f s simulated\n\n", *nodes, *steps, end)
	if err := tr.Timeline(os.Stdout, 100); err != nil {
		return err
	}
	fmt.Println()
	if err := tr.Report(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return tr.ReportFindings(os.Stdout)
}

func runTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	n := fs.Int("n", 256, "matrix dimension for probing")
	reps := fs.Int("reps", 3, "probes per candidate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := core.FirstError(
		core.PositiveInt("n", *n),
		core.PositiveInt("reps", *reps),
	); err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	fmt.Printf("autotuning gemm block size on this host (n=%d, the §5 ATLAS step)...\n", *n)
	res := linalg.TuneGemm(*n, *reps)
	for i, c := range res.Candidates {
		marker := " "
		if c == res.BlockSize {
			marker = "*"
		}
		fmt.Printf(" %s block %4d: %6.2f GFLOPS\n", marker, c, res.GFLOPS[i])
	}
	fmt.Printf("selected block size: %d\n", res.BlockSize)
	return nil
}

func runHPL(args []string) error {
	fs := flag.NewFlagSet("hpl", flag.ExitOnError)
	nodes := fs.Int("nodes", 96, "Tibidabo nodes")
	withFaults := fs.Bool("faults", false, "inject §6.1/§6.3 faults into a checkpointed production run")
	faultSeed := fs.Uint64("fault-seed", 1, "fault schedule seed (same seed, same run, any -j)")
	hours := fs.Float64("hours", 24, "useful work hours of the fault-injected run (with -faults)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := core.FirstError(
		core.PositiveInt("nodes", *nodes),
		core.PositiveFloat("hours", *hours),
	); err != nil {
		return fmt.Errorf("hpl: %w", err)
	}
	n := int(8192 * math.Sqrt(float64(*nodes)))
	r, mpw := core.TibidaboHPL(*nodes, n)
	fmt.Printf("Tibidabo HPL: %d nodes, N=%d\n", r.Nodes, r.N)
	fmt.Printf("  %.1f GFLOPS, efficiency %.1f%%, residual %.3f (valid=%v)\n",
		r.GFLOPS, r.Efficiency*100, r.Residual, r.Valid)
	fmt.Printf("  %.0f MFLOPS/W (paper: 97 GFLOPS, 51%%, 120 MFLOPS/W at 96 nodes)\n", mpw)
	if *withFaults {
		fmt.Println()
		return faultReport(os.Stdout, *nodes, *hours, *faultSeed)
	}
	return nil
}

// faultReport runs a checkpointed *hours*-hour production job on a
// simulated nodes-node Tibidabo with the §6.1/§6.3 failure modes
// injected from the given seed, and prints the measured makespan next
// to the analytic checkpoint-efficiency prediction. Deterministic:
// same (nodes, hours, seed) prints the same bytes.
func faultReport(w io.Writer, nodes int, hours float64, seed uint64) error {
	if nodes <= 0 || hours <= 0 {
		return fmt.Errorf("faults: need positive node count and hours (got %d nodes, %vh)", nodes, hours)
	}
	pcie := reliability.TibidaboPCIe()
	mtbf := reliability.ClusterMTBFHours(nodes, 2, reliability.DIMMAnnualErrorLow, pcie)
	const ckptCost, restart = 0.1, 0.05
	interval := reliability.OptimalCheckpointHours(ckptCost, mtbf)
	analytic := reliability.CheckpointEfficiency(interval, ckptCost, restart, mtbf)
	p := faults.Params{
		Nodes:        nodes,
		HorizonHours: 10 * hours,
		MemMTBFHours: reliability.MTBEHours(nodes, 2, reliability.DIMMAnnualErrorLow),
		Stability:    pcie,
		// NIC degradations on top of the fatal modes: roughly one
		// onset per machine MTBF, at the default 4x slowdown.
		LinkMTBFHours: mtbf,
		Seed:          seed,
	}
	res := faults.Replay(cluster.Tibidabo(nodes), faults.Generate(p), faults.RunConfig{
		WorkHours: hours, IntervalHours: interval,
		CheckpointHours: ckptCost, RestartHours: restart, CommFraction: 0.3,
	})
	fmt.Fprintf(w, "fault injection (§6.1/§6.3): seed %d, %.0fh job on %d nodes\n", seed, hours, nodes)
	fmt.Fprintf(w, "  machine MTBF %.1f h (ECC-less memory events + PCIe/NIC hangs)\n", mtbf)
	fmt.Fprintf(w, "  checkpoint every %.2f h (Young), cost %.2f h, restart %.2f h\n", interval, ckptCost, restart)
	fmt.Fprintf(w, "  injected: %d fatal faults, %d NIC degradations\n", res.Failures, res.Degrades)
	fmt.Fprintf(w, "  replay: makespan %.2f h, %d checkpoints, %d restarts, %.2f h lost to rework\n",
		res.MakespanHours, res.Checkpoints, res.Restarts, res.LostHours)
	fmt.Fprintf(w, "  useful-work fraction %.1f%% vs analytic prediction %.1f%% (|err| %.3f)\n",
		res.UsefulFraction*100, analytic*100, math.Abs(res.UsefulFraction-analytic))
	return nil
}
