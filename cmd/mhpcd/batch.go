package main

// Request coalescing: singleflight generalized from "identical
// request" to "same sweep". Every leader runs as a sweep (runSweep in
// server.go). Without batching it is a sweep of one, run at once; with
// `-batch-window` > 0 the per-key singleflight leaders that arrive
// within one window (and share an experiment family — the same
// quick/csv options) are merged into one sweep: one admission token,
// one TablesContext over the union of their experiment ids, and the
// per-id rendered bytes fanned back out to every waiting key. The
// harness pool then parallelizes *inside* the sweep (opt.Jobs), so a
// burst of B requests over U unique experiments costs U executions
// in one admission slot instead of B executions in B slots.
//
// A sweep of one and a sweep of many render through the same code, so
// the bytes each waiter receives are identical to what its own solo
// run would have produced (TestBatchedRealRegistryByteIdentity pins
// this), and both checkpoint every member key into its own ledger: a
// batched job resumes after a kill like a solo one
// (TestBatchedSweepResumesAfterAbort).
//
// Cancellation is per-waiter: a waiter whose context dies stops
// listening (its own caller sees the cancellation) but the shared
// sweep keeps running for the rest, and still stores the departed
// waiter's key (TestBatchCancelledWaiterKeyIsStored); only when the
// *last* waiter bails is the sweep itself cancelled. A server drain
// still aborts sweeps through baseCtx like any other run.

import (
	"context"
	"sync"
	"time"
)

// famKey groups runs that can share one sweep: the options that feed
// harness.Options and the renderer. Seed is absent by design — it
// never alters the simulation — and the experiment id is what the
// sweep unions over.
type famKey struct {
	quick bool
	csv   bool
}

func (p runParams) family() famKey { return famKey{quick: p.Quick, csv: p.CSV} }

// sweep is one pending-or-running batch for a family. Waiters block
// on done and read their bytes out of results by params key.
type sweep struct {
	b   *batcher
	fam famKey

	mu     sync.Mutex
	ps     []runParams // distinct keys, arrival order
	live   int         // waiters still listening
	fired  bool
	cancel context.CancelFunc // set once the sweep context exists
	timer  *time.Timer

	done    chan struct{}
	results map[string]swept
	err     error
}

// batcher windows incoming leaders into sweeps; with a zero window
// each leader is a sweep of one.
type batcher struct {
	s      *server
	window time.Duration
	max    int // keys per sweep before firing early

	mu      sync.Mutex
	pending map[famKey]*sweep
}

// submit runs p as a sweep and returns its share. With a zero window
// that is a sweep of one, run on the caller's goroutine. Otherwise p
// enrolls in its family's pending sweep (opening one and arming the
// window timer if none is pending) and submit blocks until the sweep
// delivers or ctx dies. Exactly one submit per content key is in
// flight at a time — the per-key singleflight upstream guarantees it —
// so ps never holds duplicate keys.
func (b *batcher) submit(ctx context.Context, p runParams) (swept, error) {
	fam := p.family()
	if b.window == 0 {
		out, err := b.s.runSweep(ctx, fam, []runParams{p})
		return out[p.key()], err
	}
	b.mu.Lock()
	sw := b.pending[fam]
	if sw == nil {
		sw = &sweep{b: b, fam: fam, done: make(chan struct{})}
		sw.timer = time.AfterFunc(b.window, func() {
			// Window over: detach the sweep from pending and run it.
			b.mu.Lock()
			if b.pending[fam] == sw {
				delete(b.pending, fam)
			}
			b.mu.Unlock()
			sw.run()
		})
		b.pending[fam] = sw
	}
	sw.mu.Lock()
	sw.ps = append(sw.ps, p)
	sw.live++
	full := len(sw.ps) >= b.max
	sw.mu.Unlock()
	if full {
		// Fire early: the window would only delay an already-full sweep.
		delete(b.pending, fam)
		b.mu.Unlock()
		sw.timer.Stop()
		go sw.run()
	} else {
		b.mu.Unlock()
	}

	select {
	case <-sw.done:
		return sw.results[p.key()], sw.err
	case <-ctx.Done():
		sw.release()
		return swept{}, ctx.Err()
	}
}

// release drops one waiter; the last one out cancels the shared
// sweep (there is no one left to deliver to).
func (sw *sweep) release() {
	sw.mu.Lock()
	sw.live--
	last := sw.live == 0
	cancel := sw.cancel
	sw.mu.Unlock()
	if last && cancel != nil {
		cancel()
	}
}

// run executes the sweep once: guard against double-fire (the timer
// and the batch-max path can race), build the sweep context, account
// the batch, execute it, publish.
func (sw *sweep) run() {
	sw.mu.Lock()
	if sw.fired {
		sw.mu.Unlock()
		return
	}
	sw.fired = true
	ps := sw.ps
	abandoned := sw.live == 0
	s := sw.b.s
	ctx, cancel := context.WithCancel(s.baseCtx)
	sw.cancel = cancel
	sw.mu.Unlock()

	if abandoned {
		// Every waiter cancelled inside the window: nothing to run.
		cancel()
		sw.err = context.Canceled
		close(sw.done)
		return
	}

	s.counter("serve.batches").Add(1)
	s.counter("serve.batch_jobs").Add(int64(len(ps)))
	s.col.Histogram("serve.batch_size").Observe(int64(len(ps)))

	results, err := s.runSweep(ctx, sw.fam, ps)
	cancel()
	sw.results, sw.err = results, err
	close(sw.done)
}
