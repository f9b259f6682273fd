package main

// Request coalescing: singleflight generalized from "identical
// request" to "same sweep". Without batching every admitted run is
// its own harness.TablesContext call; with `-batch-window` > 0 the
// per-key singleflight leaders that arrive within one window (and
// share an experiment family — the same quick/csv options) are merged
// into a single sweep execution: one admission token, one
// TablesContext over the union of their experiment ids, and the
// per-id rendered bytes fanned back out to every waiting key. The
// harness pool then parallelizes *inside* the sweep (opt.Jobs), so a
// burst of B requests over U unique experiments costs U executions
// in one admission slot instead of B executions in B slots.
//
// Per-table rendering is unchanged from the unbatched path, so the
// bytes each waiter receives are identical to what its own solo run
// would have produced (TestBatchedRealRegistryByteIdentity pins
// this).
//
// Cancellation is per-waiter: a waiter whose context dies stops
// listening (its own caller sees the cancellation) but the shared
// sweep keeps running for the rest; only when the *last* waiter bails
// is the sweep itself cancelled. A server drain still aborts sweeps
// through baseCtx like any other run.
//
// Batched sweeps bypass the resumable-run checkpointing of
// admitAndRun by design: a sweep's identity is the union of whatever
// keys happened to coalesce in one window, not a stable run key, so
// there is no ledger to resume from. An aborted sweep simply re-runs;
// the unbatched path (-batch-window 0) is the one that checkpoints.

import (
	"bytes"
	"context"
	"sync"
	"time"

	"mobilehpc/internal/harness"
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
	results map[string][]byte
	err     error
}

// batcher windows incoming leaders into sweeps.
type batcher struct {
	s      *server
	window time.Duration
	max    int // keys per sweep before firing early

	mu      sync.Mutex
	pending map[famKey]*sweep
}

func newBatcher(s *server, window time.Duration, max int) *batcher {
	if max <= 0 {
		max = 32
	}
	return &batcher{s: s, window: window, max: max, pending: map[famKey]*sweep{}}
}

// submit enrolls p in its family's pending sweep (opening one and
// arming the window timer if none is pending) and blocks until the
// sweep delivers or ctx dies. Exactly one submit per content key is
// in flight at a time — the per-key singleflight upstream guarantees
// it — so ps never holds duplicate keys.
func (b *batcher) submit(ctx context.Context, p runParams) ([]byte, error) {
	fam := p.family()
	b.mu.Lock()
	sw := b.pending[fam]
	if sw == nil {
		sw = &sweep{b: b, fam: fam, done: make(chan struct{})}
		sw.timer = time.AfterFunc(b.window, func() { b.fire(fam, sw) })
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
		if sw.err != nil {
			return nil, sw.err
		}
		return sw.results[p.key()], nil
	case <-ctx.Done():
		sw.release()
		return nil, ctx.Err()
	}
}

// fire detaches the sweep from pending (timer path) and runs it.
func (b *batcher) fire(fam famKey, sw *sweep) {
	b.mu.Lock()
	if b.pending[fam] == sw {
		delete(b.pending, fam)
	}
	b.mu.Unlock()
	sw.run()
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
// the batch, execute under one admission token, publish.
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

	var results map[string][]byte
	err := s.admitted(ctx, func(runCtx context.Context) error {
		var e error
		results, e = s.cfg.sweepFn(runCtx, sw.fam, ps, s.cfg.jobs)
		return e
	})
	cancel()
	sw.results, sw.err = results, err
	close(sw.done)
}

// runSweepBytes is the real sweep executor: one TablesContext over
// the union of experiment ids, rendered per table exactly as the
// unbatched runExperimentBytes renders, fanned out per key. Keys
// sharing an id (seed is a replica salt) share one execution and one
// rendering.
func runSweepBytes(ctx context.Context, fam famKey, ps []runParams, jobs int) (map[string][]byte, error) {
	var ids []string
	seen := map[string]bool{}
	for _, p := range ps {
		if !seen[p.ID] {
			seen[p.ID] = true
			ids = append(ids, p.ID)
		}
	}
	tabs, err := harness.TablesContext(ctx, ids, harness.Options{Quick: fam.quick, Jobs: jobs})
	if err != nil {
		return nil, err
	}
	byID := make(map[string][]byte, len(ids))
	for i, tab := range tabs {
		var buf bytes.Buffer
		if fam.csv {
			err = tab.CSV(&buf)
		} else {
			err = tab.Render(&buf)
		}
		if err != nil {
			return nil, err
		}
		byID[ids[i]] = buf.Bytes()
	}
	out := make(map[string][]byte, len(ps))
	for _, p := range ps {
		out[p.key()] = byID[p.ID]
	}
	return out, nil
}
