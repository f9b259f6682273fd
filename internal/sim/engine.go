// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of timed
// events. On top of the raw event queue it offers blocking "processes":
// coroutines (iter.Pull, each on its own goroutine) that can wait for
// simulated time to pass or for messages to arrive, in the style of
// SimPy or OMNeT++ simple modules. Control passes between the dispatch
// loop and a process by a direct coroutine switch, never through the Go
// scheduler, so at any instant exactly one goroutine runs (either the
// engine dispatch loop or a single resumed process) and simulations are
// fully deterministic: equal-time events fire in scheduling order.
//
// sim is the substrate under every time-based component of mobilehpc: the
// interconnect models, the MPI runtime, and the cluster scalability
// experiments all advance the same virtual clock.
//
// # Event queue
//
// The queue is a specialized 4-ary min-heap over *Event ordered by
// (time, seq) — seq is a per-engine monotone counter, so the order is a
// strict total order and equal-time events dispatch in scheduling
// (FIFO) order. The current minimum is held outside the heap in a
// one-element cache, so the dominant stepping pattern (dispatch one
// event, schedule the next) never touches the heap at all.
//
// Cancelled events are deleted lazily — Cancel only marks the event —
// but the engine counts the tombstones it leaves behind, and when they
// outnumber the live events (and pass a minimum batch size) the heap
// is compacted in one O(n) sweep-and-heapify pass. Cancel-heavy
// schedules (protocol timeouts, fault injectors arming alarms that
// almost always die first) therefore pay amortised O(1) per cancel and
// the queue stays bounded by the live-event population, instead of
// accumulating placeholders until their (possibly far-future) times
// surface. Compaction is a pure queue-representation change: dispatch
// order is the (time, seq) total order, which heapify preserves, so
// simulation output is unaffected.
//
// Two scheduling APIs share that queue. Schedule/At return a *Event
// handle that supports Cancel; each call allocates, because the handle
// may outlive the firing. After/AtFunc return no handle and recycle
// their events through a per-engine free list, so steady-state
// scheduling through them — and through everything built on them:
// Proc.Wait, Queue wakeups, Resource handoffs — allocates nothing.
//
// # Concurrency contract
//
// An Engine is single-goroutine: while Run is active, only the one
// logical thread of control — the dispatch loop and the process it has
// currently resumed — may touch the engine. The parallel experiment
// harness (internal/harness) relies on this by giving every concurrent
// task its own Engine; it never shares one across workers. Scheduling
// onto an engine from a second goroutine while Run is active panics
// with a diagnostic rather than silently corrupting the event heap
// (see checkOwner). All scheduling entry points — Schedule, At, After,
// AtFunc — amortise the (expensive, runtime.Stack based) goroutine-id
// verification over every ownerSampleWindow-th in-Run call, so
// sustained misuse still panics within one sampling window while the
// hot path pays two predictable branches per call.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// Event is a scheduled callback handle returned by Schedule and At. It
// can be cancelled before it fires. Events scheduled through the
// After/AtFunc fast path are pooled internally and never exposed.
type Event struct {
	time float64
	seq  uint64
	fn   func()
	next *Event // free-list link while recycled (pooled events only)
	// eng is the owning engine while the event is queued, nil once it
	// has been dispatched or dropped. It is both the tombstone-count
	// channel for Cancel and the guard that makes Cancel on a stale
	// handle — already fired, already dropped, sitting in the free
	// list — a strict no-op instead of a count-corrupting (or, on the
	// free-list path, callback-killing) write.
	eng      *Engine
	pooled   bool // recycled through the engine free list after firing
	canceled bool
}

// Time returns the virtual time at which the event fires.
func (e *Event) Time() float64 { return e.time }

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled, or otherwise no-longer-queued event is a no-op —
// in particular a handle held past its dispatch can never corrupt the
// engine's free list or cancel an unrelated recycled event. The event
// stays queued as a tombstone until it either surfaces at the top of
// the queue (lazy deletion) or a compaction sweep reclaims it, which
// the engine triggers once tombstones outnumber live events.
func (e *Event) Cancel() {
	eng := e.eng
	if eng == nil || e.canceled {
		return
	}
	e.canceled = true
	eng.tombstones++
	if eng.tombstones >= compactMinTombstones && eng.tombstones*2 > eng.Pending() {
		eng.compact()
	}
}

// compactMinTombstones is the minimum tombstone population before a
// cancel triggers heap compaction: below it, lazy deletion at the heap
// top is cheaper than a sweep; above it, compaction runs only when
// tombstones outnumber live events, so its O(n) cost amortises to O(1)
// per cancel and the queue length stays within 2x the live events.
const compactMinTombstones = 64

// less orders events by (time, seq): earlier time first, and FIFO
// scheduling order among equal-time events. seq is unique per engine,
// so this is a strict total order — dispatch order cannot depend on
// heap shape.
func less(a, b *Event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// Observer receives engine activity callbacks for telemetry: one
// call per event scheduled (with the queue depth just after the
// push), dispatched, or cancelled-and-dropped. The hook is optional
// and defaults to nil — a no-op that costs one nil check per event —
// so simulation behaviour and determinism are never affected by
// observation. Callbacks run on the engine's goroutine; an observer
// shared across engines (the normal case, see SetDefaultObserver)
// must therefore be safe for concurrent use.
type Observer interface {
	// EventScheduled reports one scheduled event; depth is the event
	// queue length immediately after the push.
	EventScheduled(depth int)
	// EventDispatched reports one fired event.
	EventDispatched()
	// EventCanceled reports one event dropped from the queue because
	// it was cancelled before firing.
	EventCanceled()
}

// defaultObserver is attached to every engine NewEngine creates (the
// engines of the experiment harness are constructed deep inside the
// cluster builders, so a creation-time default is the only practical
// attachment point). Stored boxed because atomic.Value cannot hold a
// nil interface.
var defaultObserver atomic.Value // of observerBox

type observerBox struct{ o Observer }

// SetDefaultObserver installs the observer that subsequently created
// engines start with (nil restores the no-op default). Existing
// engines are unaffected. The mhpc CLI sets this when telemetry is
// requested; tests must restore the previous value.
func SetDefaultObserver(o Observer) { defaultObserver.Store(observerBox{o}) }

// Engine is a discrete-event simulator. The zero value is not ready;
// use NewEngine.
type Engine struct {
	now  float64
	seq  uint64
	head *Event   // cached most-recent minimum; nil when that slot is empty
	heap []*Event // 4-ary min-heap of the remaining events
	free *Event   // free list of recycled pooled events
	// tombstones counts cancelled events still sitting in the queue
	// (head slot included). Maintained by Cancel, the lazy-deletion
	// drop in Run, and compact.
	tombstones int
	procs      int     // live processes, for leak detection
	live       []*Proc // the live processes themselves, for abort teardown
	stopped    bool
	obs        Observer   // nil = no telemetry (the default)
	abort      *AbortFlag // nil = not cancellable (the default)

	// Misuse detection for the one-engine-per-goroutine invariant:
	// while running is set, owner holds the goroutine id of the single
	// logical thread of control (the dispatch loop, or the process it
	// has resumed — the handoff points in proc.go keep it current).
	// Both are atomics only so that a misbehaving second goroutine can
	// read them race-free on its way to the diagnostic panic. Goroutine
	// ids are parsed from runtime.Stack exactly once per goroutine
	// (Run entry, first process resume) and cached — loopGid below and
	// Proc.gid — so steady-state handoffs never pay for the parse.
	running atomic.Bool
	owner   atomic.Int64
	loopGid int64  // cached goroutine id of the Run dispatch loop
	postN   uint64 // in-Run After/AtFunc calls, for the sampled check
}

// gid returns the current goroutine's id, parsed from the header line
// of its stack trace ("goroutine N [...]"). Costly (microseconds): the
// engine calls it once per Run and once per spawned process, never per
// event.
func gid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// checkOwner panics if the calling goroutine is not the engine's
// current thread of control while Run is active. Called before any
// state is touched, so the misuse path mutates nothing.
func (e *Engine) checkOwner() {
	if e.running.Load() && gid() != e.owner.Load() {
		panic("sim: engine used from a second goroutine while Run is active; " +
			"an Engine is single-goroutine — give each concurrent task its own " +
			"engine (see the package comment and DESIGN.md, Parallel execution)")
	}
}

// ownerSampleWindow is the amortisation window of the sampled
// ownership check: one full gid verification (a ~6 µs runtime.Stack
// parse) per this many in-Run scheduling calls. At 4096 the check
// costs under 2 ns amortised — invisible next to a ~60 ns dispatch —
// while a rogue goroutine hammering any scheduling entry point still
// panics within one window.
const ownerSampleWindow = 4096

// checkOwnerSampled is the amortised ownership check shared by every
// scheduling entry point (Schedule, At, After, AtFunc): full gid
// verification on every ownerSampleWindow-th in-Run call. A legitimate
// caller pays two branches; a rogue goroutine calling in a loop still
// panics within one sampling window.
func (e *Engine) checkOwnerSampled() {
	if e.running.Load() {
		e.postN++
		if e.postN&(ownerSampleWindow-1) == 0 {
			e.checkOwner()
		}
	}
}

// NewEngine returns an engine with the clock at zero and an empty
// queue, observed by the current default observer (normally nil) and
// attached to the abort flag bound to the creating goroutine, if any
// (see BindAbort — the harness binds its run flag onto every pool
// worker, so engines built anywhere inside a task are cancellable).
func NewEngine() *Engine {
	e := &Engine{}
	if box, ok := defaultObserver.Load().(observerBox); ok {
		e.obs = box.o
	}
	e.abort = BoundAbort()
	return e
}

// SetObserver attaches o to this engine (nil detaches). Engines pick
// up the package default at creation; use this to instrument one
// engine specifically.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// SetAbortFlag attaches f to this engine (nil detaches). Engines pick
// up the goroutine-bound flag at creation (see BindAbort); use this to
// make one specific engine cancellable.
func (e *Engine) SetAbortFlag(f *AbortFlag) { e.abort = f }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule queues fn to run after delay seconds of virtual time and
// returns a cancellable handle. A negative delay is an error in the
// caller; it panics. For hot paths that never cancel, prefer After —
// it recycles events and allocates nothing in steady state.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	e.checkOwnerSampled()
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
	return e.at(e.now+delay, fn)
}

// At queues fn to run at absolute virtual time t (>= Now) and returns
// a cancellable handle.
func (e *Engine) At(t float64, fn func()) *Event {
	e.checkOwnerSampled()
	return e.at(t, fn)
}

// at is At after the ownership check (so Schedule pays for one check,
// not two).
func (e *Engine) at(t float64, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: t=%v now=%v", t, e.now))
	}
	e.seq++
	ev := &Event{time: t, seq: e.seq, fn: fn, eng: e}
	e.insert(ev)
	return ev
}

// After queues fn to run after delay seconds of virtual time. Unlike
// Schedule it returns no handle: the event cannot be cancelled, and in
// exchange it is recycled through the engine's free list, so
// steady-state scheduling through After allocates nothing. This is the
// fast path under Proc.Wait, queue and resource wakeups, and the
// interconnect's chunked transfers. Ownership misuse is detected on a
// sampled basis (see the package comment).
func (e *Engine) After(delay float64, fn func()) {
	e.checkOwnerSampled()
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
	e.post(e.now+delay, fn)
}

// AtFunc queues fn to run at absolute virtual time t (>= Now) with the
// same no-handle, allocation-free contract as After.
func (e *Engine) AtFunc(t float64, fn func()) {
	e.checkOwnerSampled()
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: t=%v now=%v", t, e.now))
	}
	e.post(t, fn)
}

// post queues fn at absolute time t on a pooled event. Internal fast
// path: no ownership check, no validation — callers (After, AtFunc,
// proc.go) have already established t >= now.
func (e *Engine) post(t float64, fn func()) {
	e.seq++
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
		ev.time, ev.seq, ev.fn, ev.eng, ev.canceled = t, e.seq, fn, e, false
	} else {
		ev = &Event{time: t, seq: e.seq, fn: fn, eng: e, pooled: true}
	}
	e.insert(ev)
}

// insert places ev into the queue: into the cached-minimum slot when
// it beats (or the queue lacks) the current head, otherwise into the
// heap. The stepping pattern — dispatch empties the queue, the
// callback schedules the successor — therefore runs entirely through
// the head slot and never sifts the heap.
func (e *Engine) insert(ev *Event) {
	if e.head == nil {
		e.head = ev
	} else if less(ev, e.head) {
		e.heapPush(e.head)
		e.head = ev
	} else {
		e.heapPush(ev)
	}
	if e.obs != nil {
		e.obs.EventScheduled(len(e.heap) + 1)
	}
}

// heapPush sifts ev up the 4-ary heap.
func (e *Engine) heapPush(ev *Event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.heap = h
}

// heapPopRoot removes the heap minimum and restores heap order by
// sifting the displaced last element down. 4-ary: half the depth of a
// binary heap, and the four-child scan stays within one cache line of
// pointers.
func (e *Engine) heapPopRoot() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n == 0 {
		return
	}
	e.heap[0] = last
	e.siftDown(0)
}

// siftDown restores heap order below position i, assuming the rest of
// the heap is well-formed. Shared by heapPopRoot and the compaction
// heapify.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[m]) {
				m = c
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// compact reclaims every tombstone in one pass: cancelled events are
// swept out of the heap slice (and the head slot), reported to the
// observer, and recycled; the survivors are re-heapified in place.
// Dispatch order is untouched — it is fixed by the (time, seq) total
// order, not by heap shape — so compaction is invisible to the
// simulation. Cost is O(queue), amortised O(1) per cancel by the
// tombstones-outnumber-live trigger in Cancel.
func (e *Engine) compact() {
	h := e.heap
	kept := h[:0]
	for _, ev := range h {
		if ev.canceled {
			e.dropCanceled(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(h); i++ {
		h[i] = nil
	}
	e.heap = kept
	// Bottom-up 4-ary heapify over the survivors.
	if len(kept) > 1 {
		for i := (len(kept) - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
	if e.head != nil && e.head.canceled {
		e.dropCanceled(e.head)
		// Leave the slot empty: the dispatch loop and insert both
		// tolerate a nil head alongside a populated heap.
		e.head = nil
	}
	e.tombstones = 0
}

// dropCanceled retires one cancelled event outside the dispatch loop's
// own lazy-deletion path: observer callback, then recycle.
func (e *Engine) dropCanceled(ev *Event) {
	if e.obs != nil {
		e.obs.EventCanceled()
	}
	e.recycle(ev)
}

// recycle returns a pooled event to the free list (and drops the
// callback and engine references either way, so fired closures can be
// collected — and stale Cancel calls are no-ops — while a caller still
// holds the handle).
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.eng = nil
	if ev.pooled {
		ev.next = e.free
		e.free = ev
	}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events until the queue is empty, Stop is called, or the
// clock would pass limit (use math.Inf(1) for no limit). It returns the
// final virtual time.
func (e *Engine) Run(limit float64) float64 {
	e.loopGid = gid()
	e.owner.Store(e.loopGid)
	e.running.Store(true)
	defer e.running.Store(false)
	e.stopped = false
	for !e.stopped {
		// Cancellation poll: one nil check per event when no flag is
		// attached, one atomic load when one is. abortRun never
		// returns — it tears down parked processes and panics with
		// *AbortError, which the experiment harness recovers at the
		// worker-pool boundary.
		if e.abort != nil && e.abort.Aborted() {
			e.abortRun()
		}
		// The minimum is head or the heap root; ties are impossible
		// (seq is unique).
		ev := e.head
		fromHeap := false
		if len(e.heap) > 0 && (ev == nil || less(e.heap[0], ev)) {
			ev = e.heap[0]
			fromHeap = true
		}
		if ev == nil {
			break
		}
		if ev.canceled {
			// Lazy deletion: drop the tombstone now that it surfaced.
			e.dropMin(fromHeap)
			e.tombstones--
			if e.obs != nil {
				e.obs.EventCanceled()
			}
			e.recycle(ev)
			continue
		}
		if ev.time > limit {
			e.now = limit
			return e.now
		}
		e.dropMin(fromHeap)
		e.now = ev.time
		if e.obs != nil {
			e.obs.EventDispatched()
		}
		fn := ev.fn
		// Recycle before running fn so the callback's own After can
		// reuse this very event — the steady-state zero-alloc loop.
		e.recycle(ev)
		fn()
	}
	return e.now
}

// abortRun is the cancelled-run exit path, entered from the dispatch
// loop (engine context, no process running). It terminates every live
// process so their goroutines unwind and exit — the "zero leaked
// goroutines on cancel" contract — then panics with *AbortError
// carrying the abort cause. The engine is not reusable afterwards;
// callers that cancel a run discard the whole simulation.
//
// Teardown order is newest-first over the live list, but it is not
// observable: every aborted run produces the same *AbortError and no
// output, so determinism across -j is unaffected.
func (e *Engine) abortRun() {
	for len(e.live) > 0 {
		e.terminate(e.live[len(e.live)-1])
	}
	panic(&AbortError{Err: e.abort.Err()})
}

// dropMin removes the current minimum from wherever it lives.
func (e *Engine) dropMin(fromHeap bool) {
	if fromHeap {
		e.heapPopRoot()
	} else {
		e.head = nil
	}
}

// RunAll runs with no time limit.
func (e *Engine) RunAll() float64 { return e.Run(math.Inf(1)) }

// Pending reports how many events (including cancelled placeholders)
// remain queued.
func (e *Engine) Pending() int {
	n := len(e.heap)
	if e.head != nil {
		n++
	}
	return n
}

// LiveProcs reports how many spawned processes have not yet returned.
// After RunAll in a well-formed simulation this should be zero; a nonzero
// value usually means a process is deadlocked waiting for a message that
// never arrives.
func (e *Engine) LiveProcs() int { return e.procs }
