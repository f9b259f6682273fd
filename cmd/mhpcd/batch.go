package main

// Request coalescing: the sweep is the one coalescing structure. A key
// that misses the store is held by exactly one sweep — its flight —
// until that sweep has stored the key's result and settled its ledger.
// A job for a key in flight joins that sweep as one more waiter; any
// other key enrols in its family's open window or opens a new sweep.
// With `-batch-window` 0 a new sweep fires at once, a sweep of one;
// with a window it fires when the window closes or `-batch-max` keys
// have joined: one admission token, one TablesContext over the union
// of the members' experiment ids, and the per-id rendered bytes fanned
// back out to every waiting key. The harness pool then parallelizes
// *inside* the sweep (opt.Jobs), so a burst of B requests over U
// unique experiments costs U executions in one admission slot instead
// of B executions in B slots. Every sweep renders and checkpoints
// through the same code, whatever its size
// (TestBatchedRealRegistryByteIdentity,
// TestBatchedSweepResumesAfterAbort).
//
// Cancellation is per waiter. Every sweep runs on its own goroutine,
// so a DELETEd job only stops listening, whichever job opened the
// sweep; the sweep goes on for the rest and still stores the departed
// job's key. The last waiter out of a fired sweep cancels it; a sweep
// left before it fires is revived by the next job for one of its keys.
// Two sweeps never hold one key's ledger at once: a job whose key sits
// on a cancelled sweep waits for it to unwind, then starts over and
// resumes from the ledger. A drain aborts sweeps through baseCtx and
// waits for each of them in s.runs.

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

// sweep is one open-or-running batch of a family. Waiters block on
// done and read their share out of results by params key.
type sweep struct {
	fam famKey

	// Guarded by b.mu.
	ps     []runParams // distinct keys, arrival order
	live   int         // waiters still listening
	fired  bool
	cancel context.CancelFunc // set once the sweep context exists
	timer  *time.Timer

	done    chan struct{}
	results map[string]swept
	err     error
}

// batcher holds every sweep that is open or running.
type batcher struct {
	s      *server
	window time.Duration
	max    int // keys per sweep before firing early

	mu      sync.Mutex
	pending map[famKey]*sweep // open windows, by family
	flight  map[string]*sweep // the sweep holding each key, by content key
}

// submit resolves p. Under one lock it either hits the store, joins
// the sweep already holding p's key, or enrols the key in a sweep, so
// a request always sees the stored result or the live flight; then it
// blocks until that sweep delivers or ctx dies. A key whose sweep was
// cancelled after it fired waits for the sweep to unwind and starts
// over.
func (b *batcher) submit(ctx context.Context, p runParams) (swept, error) {
	key := p.key()
	b.mu.Lock()
	if _, ok := b.s.cacheGet(key); ok {
		b.mu.Unlock()
		b.s.counter("serve.cache_hits").Add(1)
		return swept{cached: true}, nil
	}
	sw := b.flight[key]
	if sw != nil && sw.fired && sw.live == 0 {
		// The sweep still holds the key's ledger while it unwinds.
		b.mu.Unlock()
		select {
		case <-sw.done:
			return b.submit(ctx, p)
		case <-ctx.Done():
			return swept{}, ctx.Err()
		}
	}
	joined := sw != nil
	if joined {
		b.s.counter("serve.singleflight_hits").Add(1)
		sw.live++
	} else {
		sw = b.enrolLocked(p)
	}
	b.mu.Unlock()

	select {
	case <-sw.done:
		out := sw.results[key]
		out.coalesced = joined
		return out, sw.err
	case <-ctx.Done():
		b.release(sw)
		return swept{coalesced: joined}, ctx.Err()
	}
}

// enrolLocked adds p's key, with its first waiter, to its family's
// open window or to a new sweep, and fires the sweep when there is no
// window or it is full. A new sweep joins s.runs until it has run: the
// enrolling job holds its own count, so the Add cannot race the
// drain's Wait. b.mu must be held.
func (b *batcher) enrolLocked(p runParams) *sweep {
	sw := b.pending[p.family()]
	if sw == nil {
		sw = &sweep{fam: p.family(), done: make(chan struct{})}
		b.s.runs.Add(1)
		if b.window > 0 {
			b.pending[sw.fam] = sw
			sw.timer = time.AfterFunc(b.window, func() {
				b.mu.Lock()
				b.fireLocked(sw)
				b.mu.Unlock()
			})
		}
	}
	sw.ps = append(sw.ps, p)
	sw.live++
	b.flight[p.key()] = sw
	b.s.counter("serve.batch_jobs").Add(1)
	if b.window == 0 || len(sw.ps) >= b.max {
		b.fireLocked(sw)
	}
	return sw
}

// fireLocked closes sw's window and starts it on its own goroutine,
// once: the window timer and the batch-max path can race. b.mu must
// be held.
func (b *batcher) fireLocked(sw *sweep) {
	if sw.fired {
		return
	}
	sw.fired = true
	if b.pending[sw.fam] == sw {
		delete(b.pending, sw.fam)
	}
	if sw.timer != nil {
		sw.timer.Stop()
	}
	go b.run(sw)
}

// release drops one waiter; the last one out of a fired sweep cancels
// it (there is no one left to deliver to).
func (b *batcher) release(sw *sweep) {
	b.mu.Lock()
	sw.live--
	last := sw.live == 0
	cancel := sw.cancel
	b.mu.Unlock()
	if last && cancel != nil {
		cancel()
	}
}

// run executes the sweep, unless every waiter left before it got this
// far, then retires its keys' flight entries — after runSweep has
// stored each result and settled each ledger — and publishes.
func (b *batcher) run(sw *sweep) {
	s := b.s
	defer s.runs.Done()
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	b.mu.Lock()
	ps, abandoned := sw.ps, sw.live == 0
	sw.cancel = cancel
	b.mu.Unlock()

	s.counter("serve.batches").Add(1)
	s.col.Histogram("serve.batch_size").Observe(int64(len(ps)))
	if abandoned {
		sw.err = context.Canceled
	} else {
		sw.results, sw.err = s.runSweep(ctx, sw.fam, ps)
	}

	b.mu.Lock()
	for _, p := range ps {
		if b.flight[p.key()] == sw {
			delete(b.flight, p.key())
		}
	}
	b.mu.Unlock()
	close(sw.done)
}
