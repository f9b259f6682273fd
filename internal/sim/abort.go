package sim

// Cooperative cancellation for simulations. An AbortFlag is a cheap
// shared "stop now" signal: a canceller (a context watcher, a signal
// handler, a panicking sibling task) raises it from any goroutine, and
// every engine attached to it panics with *AbortError at its next
// dispatch step, after terminating its parked process goroutines so
// nothing leaks. The panic is the unwinding mechanism — it carries the
// abort through arbitrarily deep experiment code without threading a
// context parameter into every model — and the experiment harness
// recovers it at the worker-pool boundary, converting it back into an
// ordinary error (normally context.Canceled).
//
// Attachment is by goroutine: BindAbort associates the calling
// goroutine with a flag, and an engine polls the flag bound to the
// goroutine that runs it — Engine.Run looks the binding up with the
// goroutine id it learns anyway for the ownership check, so attaching
// costs no extra stack walk. Engines are built and run deep inside the
// cluster constructors and app drivers, so an ambient binding is the
// only practical attachment point — the same reasoning as
// SetDefaultObserver, but per-goroutine instead of process-global so
// concurrent runs (e.g. mhpcd requests) cancel independently.
//
// Cost when unattached: one nil check per dispatched event. Cost when
// attached: one atomic load per dispatched event.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrAborted is the cause recorded by AbortFlag.Abort when the caller
// supplies none.
var ErrAborted = errors.New("sim: aborted")

// AbortError is the panic payload that unwinds a cancelled simulation
// out of Engine.Run (and out of the Monte-Carlo chunk loops that poll
// the same flag). Err is the abort cause — context.Canceled,
// context.DeadlineExceeded, or a sibling task's failure. Recover it
// only at a task boundary; inside simulation code, let it fly.
type AbortError struct{ Err error }

// Error describes the abort with its cause.
func (e *AbortError) Error() string {
	if e.Err == nil {
		return "sim: run aborted"
	}
	return "sim: run aborted: " + e.Err.Error()
}

// Unwrap exposes the abort cause to errors.Is/As.
func (e *AbortError) Unwrap() error { return e.Err }

// AbortFlag is a raise-once cancellation signal shared by every engine
// and chunk loop of one logical run. The zero value is not ready; use
// NewAbortFlag. All methods are safe for concurrent use and nil-safe
// (a nil flag is never aborted), so polling code can hold a
// possibly-nil *AbortFlag unconditionally.
type AbortFlag struct {
	set atomic.Bool
	mu  sync.Mutex
	err error
}

// NewAbortFlag returns an un-raised flag.
func NewAbortFlag() *AbortFlag { return &AbortFlag{} }

// Abort raises the flag with the given cause (ErrAborted when nil).
// The first call wins: later calls — including racing ones — do not
// overwrite the recorded cause.
func (f *AbortFlag) Abort(cause error) {
	if f == nil {
		return
	}
	if cause == nil {
		cause = ErrAborted
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = cause
		f.set.Store(true)
	}
	f.mu.Unlock()
}

// Aborted reports whether the flag has been raised. One atomic load —
// the per-event poll in Engine.Run.
func (f *AbortFlag) Aborted() bool { return f != nil && f.set.Load() }

// Err returns the recorded abort cause, or nil while the flag is down.
func (f *AbortFlag) Err() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Check panics with *AbortError if the flag is raised; otherwise it is
// a no-op. Compute loops that run for a long time without touching an
// engine can call it at natural step boundaries.
func (f *AbortFlag) Check() {
	if f.Aborted() {
		panic(&AbortError{Err: f.Err()})
	}
}

// WatchContext raises the flag with ctx.Err() when ctx is cancelled.
// The returned stop function releases the watcher goroutine; call it
// when the run completes so a never-cancelled context does not leak
// the watcher. A context that cannot be cancelled installs no watcher.
func (f *AbortFlag) WatchContext(ctx context.Context) (stop func()) {
	if f == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			f.Abort(ctx.Err())
		case <-done:
		}
	}()
	return func() { close(done) }
}

// bound is the goroutine-id-keyed registry of ambient abort flags.
// Engines read it once per Run, never per event, so a mutex-protected
// map is plenty.
var bound struct {
	mu sync.Mutex
	m  map[int64]*AbortFlag
}

// BindAbort associates the calling goroutine with f: engines run on
// this goroutine while the binding is in place poll f in their
// dispatch loop, and the Monte-Carlo chunk loops poll it between
// chunks. It returns an unbind function that must run on the same
// goroutine when the task finishes; bindings do not nest — binding
// again replaces, and unbind removes, the goroutine's entry.
func BindAbort(f *AbortFlag) (unbind func()) {
	id := gid()
	bound.mu.Lock()
	if bound.m == nil {
		bound.m = map[int64]*AbortFlag{}
	}
	bound.m[id] = f
	bound.mu.Unlock()
	return func() {
		bound.mu.Lock()
		delete(bound.m, id)
		bound.mu.Unlock()
	}
}

// BoundAbort returns the flag bound to the calling goroutine, or nil.
// The harness worker pool uses it to inherit the run's flag onto the
// goroutines it spawns.
func BoundAbort() *AbortFlag { return boundAbort(gid()) }

// boundAbort returns the flag bound to goroutine id, or nil. Engine.Run
// calls it with the id it has already parsed.
func boundAbort(id int64) *AbortFlag {
	bound.mu.Lock()
	f := bound.m[id]
	bound.mu.Unlock()
	return f
}
