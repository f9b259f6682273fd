package harness

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobilehpc/internal/sim"
)

// The process-lifetime once-values (hplEff1, quickHPL) must not cache
// an abort: a run cancelled while it is their first caller would
// otherwise poison them for every later run in the process. This test
// sits first in the package's first cancel file so that, in a full
// package run, it is that first caller.
func TestOnceValuesIgnoreCancelledCaller(t *testing.T) {
	f := sim.NewAbortFlag()
	f.Abort(context.Canceled)
	unbind := sim.BindAbort(f)
	eff := hplEff1()
	_, err := quickHPL()
	unbind()
	if eff <= 0 || err != nil {
		t.Fatalf("hplEff1 = %v, quickHPL err = %v under a raised abort flag", eff, err)
	}
}

// cancelAfterDispatches is a sim.Observer that cancels a context once
// the engines of a run have dispatched a threshold number of events —
// a deterministic way to land a cancellation in the middle of a
// simulation, instead of racing a wall-clock timer against it.
type cancelAfterDispatches struct {
	n      atomic.Int64
	after  int64
	cancel context.CancelFunc
}

// EventScheduled implements sim.Observer.
func (c *cancelAfterDispatches) EventScheduled(int) {}

// EventCanceled implements sim.Observer.
func (c *cancelAfterDispatches) EventCanceled() {}

// EventDispatched cancels the context at the threshold.
func (c *cancelAfterDispatches) EventDispatched() {
	if c.n.Add(1) == c.after {
		c.cancel()
	}
}

// Cancelling fig6 mid-simulation must return context.Canceled
// promptly, render nothing, and leak no goroutines — at serial and
// parallel jobs values.
func TestCancelMidRunLeavesNoGoroutines(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancelAfterDispatches{after: 500, cancel: cancel}
		sim.SetDefaultObserver(obs)
		tabs, err := TablesContext(ctx, []string{"fig6"}, Options{Quick: true, Jobs: jobs})
		sim.SetDefaultObserver(nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if tabs != nil {
			t.Fatalf("jobs=%d: cancelled run returned tables", jobs)
		}
		if obs.n.Load() < 500 {
			t.Fatalf("jobs=%d: run finished after only %d events — cancel landed too late to test anything",
				jobs, obs.n.Load())
		}
		waitGoroutines(t, base)
	}
}

// The event-driven MPI runtime parks each rank in Suspend for its
// whole protocol chain (injection cost -> rendezvous -> per-link wire
// events -> wake), so a mid-run abort now lands, with high likelihood,
// while ranks sit suspended inside Send/Recv state machines — and
// while delivery continuations are still queued — rather than in a
// simple Proc.Wait. Sweeping the cancel threshold walks the abort
// point across those chains on the MPI-heavy experiments at Jobs=4;
// every abort must return context.Canceled, render nothing, and tear
// down all rank goroutines. This is the PR-5 cancel wall extended to
// the Suspend/Wake runtime; it runs under -race in make check.
func TestCancelSuspendedMPIRanksLeavesNoGoroutines(t *testing.T) {
	// The quick green500+fig6 pair dispatches ~79k events; these
	// thresholds scatter aborts from the first HPL panels to deep into
	// the run without ever outrunning it.
	for _, after := range []int64{200, 2500, 15000, 60000} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancelAfterDispatches{after: after, cancel: cancel}
		sim.SetDefaultObserver(obs)
		tabs, err := TablesContext(ctx, []string{"green500", "fig6"}, Options{Quick: true, Jobs: 4})
		sim.SetDefaultObserver(nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: err = %v, want context.Canceled", after, err)
		}
		if tabs != nil {
			t.Fatalf("after=%d: cancelled run returned tables", after)
		}
		if got := obs.n.Load(); got < after {
			t.Fatalf("after=%d: run finished at %d events — cancel landed too late", after, got)
		}
		waitGoroutines(t, base)
	}
}

// Cancellation through the reliability Monte-Carlo chunk loop: the
// stability experiment spends its time in reduceChunks, not in an
// engine, and must still unwind with context.Canceled.
func TestCancelMonteCarloExperiment(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: the run must abort before real work
	start := time.Now()
	_, err := TablesContext(ctx, []string{"stability"}, Options{Quick: true, Jobs: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-cancelled run still took %v", d)
	}
	waitGoroutines(t, base)
}

// A run that completes before the cancel must be untouched: its bytes
// equal an uncancelled run's at every jobs value.
func TestCompletedThenCancelledIsByteIdentical(t *testing.T) {
	want, err := Tables([]string{"fig6"}, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		ctx, cancel := context.WithCancel(context.Background())
		got, err := TablesContext(ctx, []string{"fig6"}, Options{Quick: true, Jobs: jobs})
		cancel() // after completion: must change nothing
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var w, g bytes.Buffer
		if err := want[0].Render(&w); err != nil {
			t.Fatal(err)
		}
		if err := got[0].Render(&g); err != nil {
			t.Fatal(err)
		}
		if w.String() != g.String() {
			t.Fatalf("jobs=%d: completed-then-cancelled output differs from uncancelled", jobs)
		}
	}
}

// Cancel latency: once the context is cancelled, the run must return
// within the 100 ms abort budget (engines poll per event, the MC loop
// per chunk).
func TestCancelLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency bound is noisy under -race")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := TablesContext(ctx, []string{"fig6", "stability", "green500"},
			Options{Quick: true, Jobs: 2})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the run get going
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("run returned %v after cancel, want <= 100ms", elapsed)
		}
		// The run may legitimately have finished before the cancel hit.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return within 5s")
	}
}

// A panicking task must surface from the pool as a *TaskPanicError
// tagged with its label, seed, and stack — identically at every jobs
// value — and must cancel the remaining tasks instead of crashing the
// process.
func TestPoolPanicPropagation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		base := runtime.NumGoroutine()
		flag := sim.NewAbortFlag()
		unbind := sim.BindAbort(flag)
		ran := make([]atomic.Bool, 16)
		_, err := parmapErr("experiment", func(i int) string { return "task" },
			jobs, len(ran), func(i int) int {
				ran[i].Store(true)
				if i == 3 {
					panic("kaboom")
				}
				return i
			})
		unbind()
		var tpe *TaskPanicError
		if !errors.As(err, &tpe) {
			t.Fatalf("jobs=%d: err = %v (%T), want *TaskPanicError", jobs, err, err)
		}
		if tpe.Index != 3 || tpe.Label != "task" || tpe.Seed != TaskSeed("task") {
			t.Fatalf("jobs=%d: bad tags: index=%d label=%q seed=%d", jobs, tpe.Index, tpe.Label, tpe.Seed)
		}
		if !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("jobs=%d: error %q does not carry the panic value", jobs, err)
		}
		if !strings.Contains(string(tpe.Stack), "parmapErr") && !strings.Contains(string(tpe.Stack), "cancel_test") {
			t.Fatalf("jobs=%d: stack missing panic site:\n%s", jobs, tpe.Stack)
		}
		if jobs == 1 {
			// Serial: the panic at index 3 must stop the loop.
			for i := 4; i < len(ran); i++ {
				if ran[i].Load() {
					t.Fatalf("serial task %d still ran after the panic at 3", i)
				}
			}
		}
		if !flag.Aborted() {
			t.Fatalf("jobs=%d: task panic did not raise the run's abort flag", jobs)
		}
		waitGoroutines(t, base)
	}
}

// The legacy parmap surface still re-raises the first panic on the
// caller (now as a tagged error) — no silent swallowing when no abort
// flag is bound.
func TestParmapUnboundPanicStillPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic swallowed")
		}
		tpe, ok := r.(*TaskPanicError)
		if !ok || !strings.Contains(tpe.Error(), "splat") {
			t.Fatalf("panic %v (%T) lost the task value", r, r)
		}
	}()
	parmap(4, 8, func(i int) int {
		if i == 2 {
			panic("splat")
		}
		return i
	})
}

// waitGoroutines polls until the goroutine count settles back to (or
// below) base — the goleak-style check for the cancellation wall.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > base %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}
