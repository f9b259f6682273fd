// Command mhpcd serves the mobilehpc experiment registry over HTTP:
// a long-running result service in front of the same deterministic
// simulations the mhpc CLI runs.
//
// Usage:
//
//	mhpcd [-addr :8080] [-j N] [-concurrency N] [-queue N]
//	      [-timeout D] [-store-dir DIR] [-store-bytes N]
//	      [-batch-window D] [-batch-max N] [-job-history N] [-drain D]
//
// Endpoints:
//
//	GET    /experiments      list experiment ids, titles, paper artefacts
//	POST   /run/{id}         submit one experiment as an async job (202 +
//	                         job envelope); options quick/csv/seed as
//	                         query parameters or a JSON body
//	GET    /job/{job}        job lifecycle state; done jobs carry the
//	                         result_key into /result/{key}
//	GET    /job/{job}/events SSE progress stream (mhpc-job-event/v1):
//	                         telemetry deltas every ?interval (default
//	                         200ms), then the final table and status
//	DELETE /job/{job}        cancel a job mid-run (abort-flag plumbing)
//	GET    /result/{key}     re-fetch a cached result by its content key
//	GET    /healthz          "ok", or 503 once draining
//	GET    /metrics          Prometheus text exposition (histograms
//	                         included)
//
// Results are content-addressed: the response key is a hash of
// (id, seed, quick, csv), identical requests hit the result store,
// and concurrent identical requests coalesce onto a single execution.
// The seed never changes the simulation (runs are deterministic); it
// is a replica salt for clients that want to force a fresh execution.
// The store (internal/store) holds up to -store-bytes of results
// under strict-LRU eviction and is the only place a client reads
// output from, so a result larger than the whole budget fails its
// job. With -store-dir it is disk-backed — results survive a restart
// on the same directory, recovered through a crash-safe journal, so a
// restarted server serves previously computed keys without
// re-executing them.
//
// Every run executes as a sweep. With -batch-window > 0, run
// submissions that arrive within one window and share an experiment
// family (quick/csv options) are coalesced into a single harness
// sweep — one admission token, one TablesContext over the union of
// their experiment ids — and the per-id results fan back out to every
// waiter, byte-identical to solo runs; otherwise each run is a sweep
// of one. -batch-max fires a sweep early once that many distinct keys
// have joined. Batched or not, each run key checkpoints its completed
// tasks (under -store-dir, fsynced to disk), so a failed, aborted or
// killed run resumes from its committed progress when resubmitted.
//
// Admission is bounded: -concurrency runs execute at once, -queue more
// may wait, and a job beyond that fails immediately ("at capacity").
// Each run is cancelled at the earliest of DELETE /job/{job}, the
// -timeout bound (the job fails with a deadline error), or shutdown.
// On SIGINT/SIGTERM the server stops accepting work (healthz turns
// 503), lets submitted jobs, open requests and event streams finish
// for up to -drain — a job that finishes in time stores its result —
// then aborts the stragglers mid-simulation via the harness
// cancellation path, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mobilehpc/internal/core"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
)

func main() {
	if err := serve(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mhpcd:", err)
		os.Exit(1)
	}
}

// serve parses flags, runs the server, and blocks until a clean
// shutdown; the process exits 0 whenever the drain completed, even if
// stragglers had to be aborted.
func serve(args []string) error {
	fs := flag.NewFlagSet("mhpcd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	jobs := fs.String("j", "auto", "worker pool size per run (a positive integer, or 'auto' = one per CPU)")
	concurrency := fs.Int("concurrency", 2, "experiment runs executing at once")
	queue := fs.Int("queue", 8, "additional runs allowed to wait for a slot (0 = reject when busy)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-run wall clock bound")
	storeDir := fs.String("store-dir", "", "result-store directory (empty = in-memory only; results then die with the process)")
	storeBytes := fs.Int64("store-bytes", 256<<20, "result-store byte budget, strict-LRU evicted; every result is served from the store, so a result larger than this fails its job")
	batchWindow := fs.Duration("batch-window", 0, "coalesce runs arriving within this window into one sweep (0 disables batching)")
	batchMax := fs.Int("batch-max", 32, "distinct keys merged into one sweep before it fires early")
	jobHistory := fs.Int("job-history", 256, "finished job records kept for /job lookups")
	drain := fs.Duration("drain", 10*time.Second, "grace period for in-flight runs on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	j, err := core.ParseJobs(*jobs)
	if err != nil {
		return err
	}
	if err := core.FirstError(
		core.PositiveInt("concurrency", *concurrency),
		core.NonNegativeInt("queue", *queue),
		core.PositiveInt("store-bytes", int(*storeBytes)),
		core.PositiveInt("batch-max", *batchMax),
		core.PositiveInt("job-history", *jobHistory),
		core.PositiveFloat("timeout", timeout.Seconds()),
		core.PositiveFloat("drain", drain.Seconds()),
	); err != nil {
		return err
	}
	if *batchWindow < 0 {
		return fmt.Errorf("invalid -batch-window %v: want a non-negative duration", *batchWindow)
	}

	s, err := newServer(serverConfig{
		jobs:        j,
		concurrency: *concurrency,
		queue:       *queue,
		timeout:     *timeout,
		cacheBytes:  *storeBytes,
		storeDir:    *storeDir,
		jobHistory:  *jobHistory,
		batchWindow: *batchWindow,
		batchMax:    *batchMax,
	})
	if err != nil {
		return err
	}
	defer s.store.Close()
	// Publish the collector process-wide so /metrics sees the same
	// counters the harness substrate feeds, and attach the sim observer
	// so engine event rates (sim.events.*) flow into the stream deltas.
	obs.SetActive(s.col)
	defer obs.SetActive(nil)
	sim.SetDefaultObserver(obs.NewSimObserver(s.col))
	defer sim.SetDefaultObserver(nil)

	srv := &http.Server{Addr: *addr, Handler: s.handler()}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "mhpcd: serving on %s (concurrency %d, queue %d, store %dB, batch-window %v, timeout %v)\n",
		*addr, *concurrency, *queue, *storeBytes, *batchWindow, *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: refuse new work, give open requests and every
	// submitted job the grace period (a finishing job still writes its
	// result to the store), then abort stragglers mid-simulation, wait
	// for them to unwind, and close.
	fmt.Fprintln(os.Stderr, "mhpcd: draining...")
	s.beginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(shCtx)
	if err == nil {
		err = s.waitRuns(shCtx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhpcd: drain grace expired, aborting stragglers")
		s.abortRuns()
		forceCtx, forceCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer forceCancel()
		if err := srv.Shutdown(forceCtx); err != nil {
			srv.Close()
		}
		s.waitRuns(forceCtx)
	}
	fmt.Fprintln(os.Stderr, "mhpcd: drained, bye")
	return nil
}
