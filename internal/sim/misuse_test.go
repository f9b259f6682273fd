package sim

import (
	"runtime"
	"strings"
	"testing"
)

// Scheduling onto an engine from a second goroutine while Run is active
// must panic with a diagnostic, not corrupt the event heap. This is the
// invariant the parallel experiment harness relies on (one engine per
// worker task). All scheduling entry points share one amortised
// ownership check (full gid verification every ownerSampleWindow-th
// in-Run call), so a rogue goroutine hammering any of them must panic
// within one sampling window.

// rogueCalls drives fn from a second goroutine, inside a dispatched
// event of e, until it panics or the sampling window is exhausted, and
// returns the recovered panic value (nil if none).
func rogueCalls(e *Engine, fn func(i int)) any {
	got := make(chan any, 1)
	e.Schedule(0, func() {
		done := make(chan struct{})
		go func() {
			defer func() {
				got <- recover()
				close(done)
			}()
			for i := 0; i < ownerSampleWindow; i++ {
				fn(i)
			}
		}()
		<-done
	})
	e.Run(10)
	return <-got
}

func TestScheduleFromSecondGoroutinePanics(t *testing.T) {
	e := NewEngine()
	r := rogueCalls(e, func(int) { e.Schedule(1e6, func() {}) })
	if r == nil {
		t.Fatal("a window of Schedule calls from a second goroutine during Run did not panic")
	}
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "second goroutine") {
		t.Fatalf("panic message %v does not explain the misuse", r)
	}
}

// The same misuse through At must hit the same check.
func TestAtFromSecondGoroutinePanics(t *testing.T) {
	e := NewEngine()
	if rogueCalls(e, func(int) { e.At(1e6, func() {}) }) == nil {
		t.Fatal("a window of At calls from a second goroutine during Run did not panic")
	}
}

// After's ownership check is the same amortised one, reached through
// the pooled fast path.
func TestAfterFromSecondGoroutinePanicsSampled(t *testing.T) {
	e := NewEngine()
	r := rogueCalls(e, func(int) { e.After(1e6, func() {}) }) // far future: never dispatched mid-test
	if r == nil {
		t.Fatal("a window of After calls from a second goroutine during Run did not panic")
	}
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "second goroutine") {
		t.Fatalf("panic message %v does not explain the misuse", r)
	}
}

// Legitimate single-goroutine use — including from engine processes,
// which run on their own goroutines but only ever hold control one at
// a time — must not trip the ownership check.
func TestOwnershipCheckAllowsProcesses(t *testing.T) {
	e := NewEngine()
	sum := 0
	e.Go("worker", func(p *Proc) {
		p.Wait(1) // park/resume crosses goroutines legitimately
		p.eng.Schedule(1, func() { sum += 10 })
		p.Wait(3)
		sum++
	})
	e.Schedule(0, func() { sum += 100 })
	e.RunAll()
	if sum != 111 {
		t.Fatalf("sum = %d, want 111", sum)
	}
	// After Run returns, scheduling from any goroutine is allowed again
	// (the engine is between runs).
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		e.Schedule(0, func() {})
	}()
	<-doneCh
}

// Sustained legitimate use across many sampling windows must never
// trip the check either — the sampled verification has to agree with
// the handoff-tracked owner at every sample point.
func TestSampledCheckQuietAcrossWindows(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 3*ownerSampleWindow {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.RunAll()
	if n != 3*ownerSampleWindow {
		t.Fatalf("ran %d events, want %d", n, 3*ownerSampleWindow)
	}
}

// runtime.Goexit in a process body exits the goroutine driving Run:
// the coroutine hands the Goexit back across the switch, so Run never
// returns (its deferred calls still run).
func TestProcGoexitExitsRunGoroutine(t *testing.T) {
	e := NewEngine()
	e.Go("quitter", func(p *Proc) {
		p.Wait(1)
		runtime.Goexit()
	})
	returned, unwound := false, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { unwound = true }()
		e.RunAll()
		returned = true
	}()
	<-done
	if returned || !unwound {
		t.Fatalf("Run returned=%v unwound=%v, want Goexit through the Run goroutine", returned, unwound)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Goexit", e.LiveProcs())
	}
}
