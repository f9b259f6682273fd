//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"slices"
)

// Proc is a blocking simulation process backed by a coroutine
// (iter.Pull). A process may suspend itself (Wait, Queue.Pop, Hold)
// and be resumed later by the engine; each hand-off is a direct
// coroutine switch, so exactly one goroutine is ever active and the
// simulation stays deterministic. The body still runs on its own
// goroutine, so goroutine-keyed state (engine ownership, BindAbort,
// BindLedger) works inside a process as anywhere else. A body that
// calls runtime.Goexit exits the goroutine driving Engine.Run too.
type Proc struct {
	eng     *Engine
	name    string
	gid     int64                   // cached goroutine id, set once at first resume
	next    func() (struct{}, bool) // engine -> proc: run until the next park
	yield   func(struct{}) bool     // proc -> engine: park; false once stop ran
	stop    func()                  // Engine.terminate: unwind a parked process
	dead    bool
	liveIdx int // position in eng.live while alive
	panicV  any
	// wake resumes this process from engine context. Allocated once at
	// spawn so Wait/Queue/Resource wakeups schedule it with no per-call
	// closure.
	wake func()
}

// procAbort is the internal panic value that unwinds a process
// terminated by an engine abort. It is deliberately not *AbortError:
// process code (or its deferred cleanup) recovering abort errors at a
// task boundary must never swallow the teardown of a sibling process.
type procAbort struct{}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Go spawns fn as a simulation process starting at the current virtual
// time. fn runs when the engine dispatches its start event.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wake = func() { e.switchTo(p) }
	e.procs++
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		// Control handed to this process for the first time: learn our
		// goroutine id once; every later handoff reuses it.
		p.yield = yield
		p.gid = gid()
		e.owner.Store(p.gid)
		defer func() {
			e.retire(p)
			// Recorded here, not re-raised by iter.Pull, so switchTo
			// reports it with the process name.
			p.panicV = recover()
		}()
		fn(p)
	})
	e.Schedule(0, p.wake)
	return p
}

// switchTo hands control from the engine loop to p until p parks or
// returns. Must only be called from engine (event-callback) context.
func (e *Engine) switchTo(p *Proc) {
	if p.dead {
		panic(fmt.Sprintf("sim: resuming dead process %q", p.name))
	}
	p.next()
	e.owner.Store(e.loopGid) // control back in the dispatch loop
	if p.panicV != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.panicV))
	}
}

// park suspends the calling process until the engine resumes it. When
// Engine.terminate stops the coroutine instead, yield returns false and
// park panics procAbort, so the body unwinds (running its defers) and
// the coroutine ends — the teardown path of a cancelled run. A park
// issued while unwinding panics again at once: yield keeps returning
// false, so teardown never hangs.
func (p *Proc) park() {
	ok := p.yield(struct{}{})
	p.eng.owner.Store(p.gid) // control handed back to this process
	if !ok {
		panic(procAbort{})
	}
}

// retire marks p dead and removes it from the engine's live list (O(1)
// swap-remove). Runs in the process's death defer, or in terminate for
// a process that never started; either way the engine loop is waiting
// on the coroutine switch, so the list is never mutated concurrently.
func (e *Engine) retire(p *Proc) {
	p.dead = true
	e.procs--
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[p.liveIdx] = moved
	moved.liveIdx = p.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
}

// terminate force-unwinds one parked (or not-yet-started) process by
// stopping its coroutine: a parked body sees yield return false and
// unwinds through procAbort, and its death defer retires it. A process
// stopped before its first resume never runs its body — nor its death
// defer — so terminate retires it here. Any panic value the unwinding
// produced is discarded: the run is being cancelled, and procAbort (or
// a secondary panic out of the process's own defers) must not mask the
// *AbortError the caller is about to raise.
func (e *Engine) terminate(p *Proc) {
	p.stop()
	e.owner.Store(e.loopGid) // control back in the dispatch loop
	if !p.dead {
		e.retire(p)
	}
}

// Suspend parks the calling process with no scheduled wakeup; some other
// component must eventually call Wake (directly, or by scheduling p's
// wakeup through a Queue or Resource). This is the building block for
// event-driven state machines that complete a blocking call on a
// process's behalf, e.g. the interconnect's chunked transfer pump.
func (p *Proc) Suspend() { p.park() }

// Wake resumes a process parked by Suspend and runs it until it parks
// again. Must be called from engine (event-callback) context, exactly
// like any other resume.
func (p *Proc) Wake() { p.eng.switchTo(p) }

// PostWake schedules p's resumption at the current instant through the
// event queue — the same deterministic wake Queue.Push and
// Resource.Release use, landing in FIFO order with other equal-time
// events. Unlike Wake (a direct handoff, engine context only) it may be
// called from another process's context too; p resumes when the posted
// event fires.
func (p *Proc) PostWake() { p.eng.post(p.eng.now, p.wake) }

// Wait suspends the process for d seconds of virtual time.
func (p *Proc) Wait(d float64) {
	p.eng.After(d, p.wake)
	p.park()
}

// WaitUntil suspends the process until absolute virtual time t. If t is
// in the past it is a no-op.
func (p *Proc) WaitUntil(t float64) {
	if t <= p.eng.now {
		return
	}
	p.eng.AtFunc(t, p.wake)
	p.park()
}

// Queue is an unbounded FIFO connecting processes (and plain events) to
// processes. Push never blocks; Pop suspends the calling process until an
// item is available. Wakeups are funnelled through the event queue so
// ordering stays deterministic.
type Queue struct {
	eng     *Engine
	items   []any
	waiters []*Proc
}

// NewQueue returns an empty queue bound to e.
func NewQueue(e *Engine) *Queue { return &Queue{eng: e} }

// Len reports the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Push appends v and wakes the oldest waiting process, if any. It may be
// called from event callbacks or from process context.
func (q *Queue) Push(v any) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = slices.Delete(q.waiters, 0, 1)
		q.eng.post(q.eng.now, w.wake)
	}
}

// Pop removes and returns the head item, suspending p until one exists.
func (q *Queue) Pop(p *Proc) any {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v := q.items[0]
	q.items = slices.Delete(q.items, 0, 1)
	return v
}

// TryPop removes and returns the head item without blocking; ok is false
// if the queue is empty.
func (q *Queue) TryPop() (v any, ok bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v = q.items[0]
	q.items = slices.Delete(q.items, 0, 1)
	return v, true
}

// Resource is a counted semaphore over virtual time: Acquire suspends the
// caller while no units are free. It models contended serial resources
// such as a NIC DMA engine or a shared link injection port.
type Resource struct {
	eng  *Engine
	free int
	// waiters is the FIFO of pending acquisitions, each represented by
	// the callback that receives the unit: a process's wake function
	// (Acquire) or a plain continuation (AcquireFunc). One queue keeps
	// the two acquisition styles strictly FIFO with each other.
	waiters []func()
}

// NewResource returns a resource with capacity units available.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: e, free: capacity}
}

// Free reports currently available units.
func (r *Resource) Free() int { return r.free }

// Acquire takes one unit, suspending p until one is available. The
// queue is strictly FIFO: a process releasing and immediately
// re-acquiring goes behind already-queued waiters, so long chunked
// transfers cannot starve competing flows.
func (r *Resource) Acquire(p *Proc) {
	if r.free > 0 && len(r.waiters) == 0 {
		r.free--
		return
	}
	r.waiters = append(r.waiters, p.wake)
	p.park()
	// Woken by Release, which handed the unit to us directly.
}

// AcquireFunc takes one unit and runs fn once it is held: immediately
// (before returning) when a unit is free and nobody is queued, otherwise
// from the event that hands the unit over, in the same FIFO position a
// blocking Acquire would have had. The event-driven counterpart to
// Acquire for callers that must not park a process per acquisition.
func (r *Resource) AcquireFunc(fn func()) {
	if r.free > 0 && len(r.waiters) == 0 {
		r.free--
		fn()
		return
	}
	r.waiters = append(r.waiters, fn)
}

// Release returns one unit: if acquirers are queued, the unit passes
// directly to the oldest waiter (it owns the resource when it wakes);
// otherwise the free count grows.
func (r *Resource) Release() {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = slices.Delete(r.waiters, 0, 1)
		r.eng.post(r.eng.now, w)
		return
	}
	r.free++
}
