package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// recoverAbort runs fn and returns the *AbortError it panicked with
// (nil if it returned normally); any other panic value fails the test.
func recoverAbort(t *testing.T, fn func()) (ab *AbortError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		if ab, ok = r.(*AbortError); !ok {
			t.Fatalf("panic value %T %v, want *AbortError", r, r)
		}
	}()
	fn()
	return nil
}

// An aborted Run must panic *AbortError carrying the cause, terminate
// every parked process goroutine, and leave LiveProcs at zero.
func TestEngineAbortTerminatesProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	cause := errors.New("stop the presses")
	flag := NewAbortFlag()
	e := NewEngine()
	e.SetAbortFlag(flag)
	cleaned := 0
	for i := 0; i < 8; i++ {
		e.Go("worker", func(p *Proc) {
			defer func() { cleaned++ }()
			for {
				p.Wait(1)
			}
		})
	}
	// A process that never gets a first resume: scheduled far in the
	// future relative to where the abort lands.
	e.Go("latecomer", func(p *Proc) { p.Wait(1) })
	fired := 0
	e.After(0.5, func() {
		fired++
		flag.Abort(cause)
	})
	ab := recoverAbort(t, func() { e.RunAll() })
	if ab == nil {
		t.Fatal("aborted Run returned normally")
	}
	if !errors.Is(ab, cause) {
		t.Fatalf("abort error %v does not wrap the cause", ab)
	}
	if fired != 1 {
		t.Fatalf("abort trigger fired %d times", fired)
	}
	if cleaned != 8 {
		t.Fatalf("only %d/8 process defers ran during teardown", cleaned)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after abort", e.LiveProcs())
	}
	waitForGoroutines(t, base)
}

// A flag raised only after the run completed must not disturb it:
// Run's result and the simulation state are those of an uncancelled
// run (the "completed-then-cancelled" byte-identity contract).
func TestAbortAfterCompletionIsNoOp(t *testing.T) {
	flag := NewAbortFlag()
	e := NewEngine()
	e.SetAbortFlag(flag)
	n := 0
	e.Go("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(1)
			n++
		}
	})
	end := e.RunAll()
	flag.Abort(context.Canceled)
	if end != 10 || n != 10 || e.LiveProcs() != 0 {
		t.Fatalf("end=%v n=%d live=%d after completed run", end, n, e.LiveProcs())
	}
}

// Abort raised before Run starts must abort on the first dispatch
// step, including tearing down processes that never ran.
func TestAbortBeforeRun(t *testing.T) {
	base := runtime.NumGoroutine()
	flag := NewAbortFlag()
	flag.Abort(nil)
	e := NewEngine()
	e.SetAbortFlag(flag)
	ran := false
	e.Go("p", func(p *Proc) { ran = true })
	ab := recoverAbort(t, func() { e.RunAll() })
	if ab == nil || !errors.Is(ab, ErrAborted) {
		t.Fatalf("abort error = %v, want ErrAborted", ab)
	}
	if ran {
		t.Fatal("process body ran under a pre-raised abort flag")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after abort", e.LiveProcs())
	}
	waitForGoroutines(t, base)
}

// Engines snapshot the goroutine-bound flag at creation.
func TestBindAbortAttachesNewEngines(t *testing.T) {
	flag := NewAbortFlag()
	unbind := BindAbort(flag)
	e := NewEngine()
	unbind()
	after := NewEngine()
	if e.abort != flag {
		t.Fatal("engine created under BindAbort is not attached to the flag")
	}
	if after.abort != nil {
		t.Fatal("engine created after unbind still attached")
	}
	if BoundAbort() != nil {
		t.Fatal("binding survived unbind")
	}
}

// AbortFlag semantics: first cause wins, Check panics only when
// raised, nil flags are inert, WatchContext relays ctx.Err().
func TestAbortFlagSemantics(t *testing.T) {
	var nilFlag *AbortFlag
	if nilFlag.Aborted() || nilFlag.Err() != nil {
		t.Fatal("nil flag is not inert")
	}
	nilFlag.Check() // must not panic
	nilFlag.Abort(errors.New("x"))

	f := NewAbortFlag()
	f.Check()
	first := errors.New("first")
	f.Abort(first)
	f.Abort(errors.New("second"))
	if !f.Aborted() || f.Err() != first {
		t.Fatalf("flag err = %v, want first cause", f.Err())
	}
	ab := recoverAbort(t, f.Check)
	if ab == nil || ab.Err != first {
		t.Fatalf("Check panicked with %v", ab)
	}

	ctx, cancel := context.WithCancel(context.Background())
	w := NewAbortFlag()
	stop := w.WatchContext(ctx)
	defer stop()
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !w.Aborted() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(w.Err(), context.Canceled) {
		t.Fatalf("watched flag err = %v, want context.Canceled", w.Err())
	}
}

// waitForGoroutines polls until the goroutine count returns to (or
// below) base, failing the test if it does not settle within two
// seconds — the goleak-style check used by the cancellation tests.
func waitForGoroutines(t *testing.T, base int) {
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
	t.Fatalf("goroutines leaked: %d > base %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// Aborting the hpl-192 population — 192 parked processes plus one that
// never got its first resume — must stop every coroutine: LiveProcs is
// zero and the goroutine count returns to its baseline.
func TestAbortManyParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	flag := NewAbortFlag()
	e := NewEngine()
	e.SetAbortFlag(flag)
	for i := 0; i < 192; i++ {
		e.Go("rank", func(p *Proc) {
			for {
				p.Wait(1)
			}
		})
	}
	e.After(2.5, func() {
		e.Go("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
		flag.Abort(nil)
	})
	if ab := recoverAbort(t, func() { e.RunAll() }); ab == nil {
		t.Fatal("aborted Run returned normally")
	}
	if e.LiveProcs() != 0 || len(e.live) != 0 {
		t.Fatalf("%d live procs (%d listed) after abort", e.LiveProcs(), len(e.live))
	}
	waitForGoroutines(t, base)
}

// A process that parks again from a deferred function while it is being
// torn down must neither hang the abort nor leak: the second park
// unwinds at once.
func TestAbortDeferredWait(t *testing.T) {
	base := runtime.NumGoroutine()
	flag := NewAbortFlag()
	e := NewEngine()
	e.SetAbortFlag(flag)
	deferRan, resumed := false, false
	e.Go("cleanup-waiter", func(p *Proc) {
		defer func() {
			deferRan = true
			p.Wait(1)
			resumed = true
		}()
		for {
			p.Wait(1)
		}
	})
	e.After(1.5, func() { flag.Abort(nil) })
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		e.RunAll()
	}()
	select {
	case r := <-done:
		if _, ok := r.(*AbortError); !ok {
			t.Fatalf("aborted Run ended with %v, want *AbortError", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abort hung on a process parking in its deferred cleanup")
	}
	if !deferRan || resumed {
		t.Fatalf("deferred cleanup ran=%v resumed past its park=%v", deferRan, resumed)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after abort", e.LiveProcs())
	}
	waitForGoroutines(t, base)
}
