package main

// The coalescer wall: batched execution must be invisible to clients
// (byte-identical results, per-waiter cancellation) and visible only
// in the admission ledger (fewer executions than requests). Run with
// -race: the window timer, the batch-max early fire, and waiter
// cancellation all contend on the sweep.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// sweepRecorder is a fake sweep executor: it produces exactly the
// bytes echoRun would produce for each enrolled key and records every
// invocation.
type sweepRecorder struct {
	mu     sync.Mutex
	sweeps int
	keys   int
	fams   []famKey
}

func (r *sweepRecorder) fn(ctx context.Context, fam famKey, ps []runParams, jobs int) (map[string][]byte, error) {
	r.mu.Lock()
	r.sweeps++
	r.keys += len(ps)
	r.fams = append(r.fams, fam)
	r.mu.Unlock()
	return perMember(echoRun)(ctx, fam, ps, jobs)
}

func (r *sweepRecorder) counts() (sweeps, keys int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweeps, r.keys
}

// batchedConfig is testConfig plus a window and the recording sweep.
func batchedConfig(rec *sweepRecorder, window time.Duration, max int) serverConfig {
	cfg := testConfig(echoRun)
	cfg.concurrency, cfg.queue = 2, 8
	cfg.batchWindow, cfg.batchMax = window, max
	cfg.sweepFn = rec.fn
	return cfg
}

// 100 concurrent POSTs over 5 distinct keys through a window: every
// response must carry the exact bytes an unbatched server produces
// for that key, while the execution ledger shows the collapse —
// at most 5 enrolled keys across at most 5 sweeps (typically 1), with
// serve.runs counting sweeps, not requests.
func TestBatcherCoalescesConcurrentLoad(t *testing.T) {
	rec := &sweepRecorder{}
	ts := httptest.NewServer(mustServer(t, batchedConfig(rec, 25*time.Millisecond, 32)).handler())
	defer ts.Close()

	// The unbatched truth for each of the 5 keys.
	want := map[int]string{}
	plain := httptest.NewServer(mustServer(t, testConfig(echoRun)).handler())
	for seed := 1; seed <= 5; seed++ {
		st := runJob(t, plain.URL, seededPath(seed))
		if st.State != string(jobDone) {
			t.Fatalf("unbatched seed %d: state %q (%s)", seed, st.State, st.Error)
		}
		want[seed] = fetchResult(t, plain.URL, st.ResultKey).Output
	}
	plain.Close()

	const n = 100
	paths := make([]string, n)
	for i := range paths {
		paths[i] = seededPath(i%5 + 1)
	}
	for i, st := range runJobs(t, ts.URL, paths) {
		if st.State != string(jobDone) {
			t.Errorf("%s: state %q (%s)", paths[i], st.State, st.Error)
			continue
		}
		if res := fetchResult(t, ts.URL, st.ResultKey); res.Output != want[i%5+1] {
			t.Errorf("batched output diverged from unbatched for %s: %q", paths[i], res.Output)
		}
	}

	sweeps, keys := rec.counts()
	if keys != 5 {
		t.Errorf("sweeps enrolled %d keys total, want 5 (singleflight upstream)", keys)
	}
	if sweeps < 1 || sweeps > 5 {
		t.Errorf("%d sweeps for 5 keys, want 1..5", sweeps)
	}
	if m := metric(t, ts.URL, "mhpc_serve_runs_total"); m != int64(sweeps) {
		t.Errorf("serve.runs = %d, want one per sweep (%d)", m, sweeps)
	}
	if m := metric(t, ts.URL, "mhpc_serve_batch_jobs_total"); m != 5 {
		t.Errorf("serve.batch_jobs = %d, want 5", m)
	}
}

func seededPath(seed int) string {
	return "/run/table1?quick=1&seed=" + string(rune('0'+seed))
}

// batch-max fires the sweep the moment it fills; the hour-long window
// never gets a say.
func TestBatchMaxFiresEarly(t *testing.T) {
	rec := &sweepRecorder{}
	ts := httptest.NewServer(mustServer(t, batchedConfig(rec, time.Hour, 2)).handler())
	defer ts.Close()

	// Both jobs must finish well inside runJobs' 10s wait.
	for i, st := range runJobs(t, ts.URL, []string{seededPath(1), seededPath(2)}) {
		if st.State != string(jobDone) {
			t.Errorf("seed %d: state %q (%s)", i+1, st.State, st.Error)
		}
	}
	if sweeps, keys := rec.counts(); sweeps != 1 || keys != 2 {
		t.Errorf("sweeps=%d keys=%d, want one sweep of both keys", sweeps, keys)
	}
}

// Different (quick, csv) option sets are different families: they
// never share a sweep, even inside one window.
func TestBatchFamiliesDoNotMerge(t *testing.T) {
	rec := &sweepRecorder{}
	ts := httptest.NewServer(mustServer(t, batchedConfig(rec, 30*time.Millisecond, 32)).handler())
	defer ts.Close()

	paths := []string{
		"/run/table1?quick=1&seed=1",
		"/run/table1?quick=1&csv=1&seed=1",
		"/run/table1?quick=0&seed=1",
	}
	for i, st := range runJobs(t, ts.URL, paths) {
		if st.State != string(jobDone) {
			t.Errorf("%s: state %q (%s)", paths[i], st.State, st.Error)
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.sweeps != 3 {
		t.Fatalf("%d sweeps for 3 families, want 3 (fams %v)", rec.sweeps, rec.fams)
	}
	seen := map[famKey]bool{}
	for _, f := range rec.fams {
		seen[f] = true
	}
	for _, want := range []famKey{{quick: true}, {quick: true, csv: true}, {}} {
		if !seen[want] {
			t.Errorf("family %+v never swept", want)
		}
	}
}

// blockingSweep parks inside the sweep until released, exposing the
// sweep context so tests can watch for its cancellation.
type blockingSweep struct {
	started chan context.Context
	release chan struct{}
	rec     sweepRecorder
}

func newBlockingSweep() *blockingSweep {
	return &blockingSweep{started: make(chan context.Context, 1), release: make(chan struct{})}
}

func (b *blockingSweep) fn(ctx context.Context, fam famKey, ps []runParams, jobs int) (map[string][]byte, error) {
	b.started <- ctx
	select {
	case <-b.release:
		return b.rec.fn(ctx, fam, ps, jobs)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancelling one waiter must not cancel the shared sweep: the other
// waiter still gets its bytes. Only the last waiter out takes the
// sweep down.
func TestBatchWaiterCancelKeepsSweepAlive(t *testing.T) {
	bs := newBlockingSweep()
	cfg := batchedConfig(nil, 30*time.Millisecond, 32)
	cfg.sweepFn = bs.fn
	s := mustServer(t, cfg)

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	r1, r2 := make(chan error, 1), make(chan error, 1)
	p1 := runParams{ID: "table1", Seed: 1, Quick: true}
	p2 := runParams{ID: "table1", Seed: 2, Quick: true}
	go func() {
		_, err := s.batcher.submit(ctx1, p1)
		r1 <- err
	}()
	go func() {
		_, err := s.batcher.submit(context.Background(), p2)
		r2 <- err
	}()

	var sweepCtx context.Context
	select {
	case sweepCtx = <-bs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never started")
	}
	if s, k := bs.rec.counts(); s != 0 || k != 0 {
		t.Fatalf("sweep completed early (sweeps=%d keys=%d)", s, k)
	}

	cancel1()
	select {
	case err := <-r1:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	// The shared sweep must still be live: one waiter remains.
	select {
	case <-sweepCtx.Done():
		t.Fatal("sweep cancelled by a non-final waiter")
	case <-time.After(20 * time.Millisecond):
	}

	close(bs.release)
	select {
	case err := <-r2:
		if err != nil {
			t.Fatalf("surviving waiter: %v", err)
		}
		want, _ := echoRun(context.Background(), p2)
		if res, _ := s.cachePeek(p2.key()); res.Output != string(want) {
			t.Fatalf("surviving waiter's result is %q, want %q", res.Output, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("surviving waiter never returned")
	}
}

// A waiter cancelled mid-sweep does not throw its key's finished work
// away: the sweep goes on for the other waiter, stores both keys, and
// resubmitting the cancelled key is a store hit, not a second run.
func TestBatchCancelledWaiterKeyIsStored(t *testing.T) {
	bs := newBlockingSweep()
	cfg := batchedConfig(nil, 30*time.Millisecond, 32)
	cfg.sweepFn = bs.fn
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	j1, j2 := postJob(t, ts.URL, seededPath(1)), postJob(t, ts.URL, seededPath(2))
	select {
	case <-bs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never started")
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/job/"+j1.Job, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJobState(t, ts.URL, j1.Job, string(jobCancelled))

	close(bs.release)
	waitJobState(t, ts.URL, j2.Job, string(jobDone))
	p1 := runParams{ID: "table1", Seed: 1, Quick: true}
	if _, ok := s.store.Peek(p1.key()); !ok {
		t.Fatal("the cancelled waiter's key was rendered but not stored")
	}
	runs := metric(t, ts.URL, "mhpc_serve_runs_total")
	if st := runJob(t, ts.URL, seededPath(1)); st.State != string(jobDone) || !st.Cached {
		t.Errorf("resubmitted key: state %q cached %v, want a done store hit", st.State, st.Cached)
	}
	if got := metric(t, ts.URL, "mhpc_serve_runs_total"); got != runs {
		t.Errorf("serve.runs %d -> %d on resubmit, want no new run", runs, got)
	}
}

// The last waiter out cancels the shared sweep — nobody is left to
// deliver to, so the harness work is aborted.
func TestBatchLastWaiterCancelAbortsSweep(t *testing.T) {
	bs := newBlockingSweep()
	cfg := batchedConfig(nil, 10*time.Millisecond, 32)
	cfg.sweepFn = bs.fn
	s := mustServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.batcher.submit(ctx, runParams{ID: "table1", Seed: 1, Quick: true})
		errc <- err
	}()
	var sweepCtx context.Context
	select {
	case sweepCtx = <-bs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never started")
	}
	cancel()
	select {
	case <-sweepCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("sweep context never cancelled after the last waiter left")
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
}

// A sweep whose every waiter cancelled inside the window never
// executes at all.
func TestBatchAbandonedSweepNeverRuns(t *testing.T) {
	rec := &sweepRecorder{}
	cfg := batchedConfig(rec, 60*time.Millisecond, 32)
	s := mustServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.batcher.submit(ctx, runParams{ID: "table1", Seed: 1, Quick: true})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond) // let submit enroll
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
	time.Sleep(120 * time.Millisecond) // window elapses, sweep fires abandoned
	if sweeps, _ := rec.counts(); sweeps != 0 {
		t.Errorf("abandoned sweep executed %d times, want 0", sweeps)
	}
}

// The real thing: batched and unbatched servers over the actual
// experiment registry produce byte-identical results for concurrent
// same-family requests, and the batched server spends fewer
// executions doing it.
func TestBatchedRealRegistryByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real experiment runs")
	}
	base := serverConfig{jobs: 2, concurrency: 1, queue: 8, timeout: 2 * time.Minute, cacheBytes: 1 << 20}
	plain := httptest.NewServer(mustServer(t, base).handler())
	defer plain.Close()
	batched := base
	batched.batchWindow, batched.batchMax = 25*time.Millisecond, 32
	bs := mustServer(t, batched)
	ts := httptest.NewServer(bs.handler())
	defer ts.Close()

	paths := []string{"/run/table1?quick=1", "/run/fig6?quick=1"}
	want := map[string]string{}
	for _, p := range paths {
		st := runJob(t, plain.URL, p)
		if st.State != string(jobDone) {
			t.Fatalf("unbatched %s: state %q (%s)", p, st.State, st.Error)
		}
		want[p] = fetchResult(t, plain.URL, st.ResultKey).Output
	}

	for i, st := range runJobs(t, ts.URL, paths) {
		p := paths[i]
		if st.State != string(jobDone) {
			t.Errorf("batched %s: state %q (%s)", p, st.State, st.Error)
			continue
		}
		if res := fetchResult(t, ts.URL, st.ResultKey); res.Output != want[p] {
			t.Errorf("batched %s diverged from unbatched output", p)
		}
	}
	if m := metric(t, ts.URL, "mhpc_serve_batches_total"); m != 1 {
		t.Errorf("serve.batches = %d, want 1 (both ids in one sweep)", m)
	}
	if m := metric(t, ts.URL, "mhpc_serve_runs_total"); m != 1 {
		t.Errorf("serve.runs = %d, want 1 for the merged sweep", m)
	}
}
