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
		t.Errorf("sweeps enrolled %d keys total, want 5 (one flight per key)", keys)
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

// cancelJob DELETEs one job and waits for it to end cancelled.
func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest("DELETE", base+"/job/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJobState(t, base, id, string(jobCancelled))
}

// awaitSweep waits for a blocking sweep to start and returns its
// context.
func awaitSweep(t *testing.T, bs *blockingSweep) context.Context {
	t.Helper()
	select {
	case ctx := <-bs.started:
		return ctx
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never started")
		return nil
	}
}

// DELETE releases only the job it names: when the job that opened a
// key's sweep is cancelled, a job that joined that sweep still ends
// done, and the key is stored.
func TestBatchDeletedOpenerKeepsJoinerDone(t *testing.T) {
	bs := newBlockingSweep()
	cfg := testConfig(echoRun)
	cfg.sweepFn = bs.fn
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	opener := postJob(t, ts.URL, seededPath(1))
	awaitSweep(t, bs)
	joiner := postJob(t, ts.URL, seededPath(1))
	waitMetric(t, ts.URL, "mhpc_serve_singleflight_hits_total", 1)
	cancelJob(t, ts.URL, opener.Job)

	close(bs.release)
	if st := waitJob(t, ts.URL, joiner.Job); st.State != string(jobDone) || !st.Coalesced {
		t.Fatalf("joiner: state %q coalesced %v (%s), want a done coalesced job", st.State, st.Coalesced, st.Error)
	}
	if _, ok := s.store.Peek(runParams{ID: "table1", Seed: 1, Quick: true}.key()); !ok {
		t.Error("the joined key was not stored")
	}
}

// A key resubmitted inside its window after its only waiter was
// DELETEd revives its place in the open sweep: it is enrolled once.
func TestBatchResubmitInWindowEnrolsOnce(t *testing.T) {
	rec := &sweepRecorder{}
	ts := httptest.NewServer(mustServer(t, batchedConfig(rec, 200*time.Millisecond, 32)).handler())
	defer ts.Close()

	cancelJob(t, ts.URL, postJob(t, ts.URL, seededPath(1)).Job)
	if st := runJob(t, ts.URL, seededPath(1)); st.State != string(jobDone) {
		t.Fatalf("resubmitted job: state %q (%s)", st.State, st.Error)
	}
	if sweeps, keys := rec.counts(); sweeps != 1 || keys != 1 {
		t.Errorf("sweeps=%d keys=%d, want the key enrolled once in one sweep", sweeps, keys)
	}
	if m := metric(t, ts.URL, "mhpc_serve_batch_jobs_total"); m != 1 {
		t.Errorf("serve.batch_jobs = %d, want 1", m)
	}
}

// Every job resolves exactly one way, and only a DELETE cancels one:
// under concurrent jobs over stored and unstored keys, with openers
// and joiners DELETEd mid-sweep, serve.jobs = serve.cache_hits +
// serve.singleflight_hits + serve.batch_jobs, and the jobs reporting
// cached and coalesced match the first two counters.
func TestBatchAccountingIdentity(t *testing.T) {
	for _, tc := range []struct {
		name        string
		window      time.Duration
		max, sweeps int
	}{
		{"no window", 0, 32, 3},
		{"window", time.Hour, 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := newBlockingSweep()
			cfg := batchedConfig(nil, tc.window, tc.max)
			cfg.sweepFn = bs.fn
			cfg.concurrency = tc.sweeps
			s := mustServer(t, cfg)
			ts := httptest.NewServer(s.handler())
			defer ts.Close()

			stored := runParams{ID: "table1", Seed: 1, Quick: true}
			out, _ := echoRun(context.Background(), stored)
			if err := s.cachePut(stored.key(), stored, out); err != nil {
				t.Fatal(err)
			}
			// Seed 1 is stored; seeds 2-4 each open one key of the
			// sweeps, then two more jobs per seed follow.
			var all []string
			post := func(seed int) string {
				all = append(all, postJob(t, ts.URL, seededPath(seed)).Job)
				return all[len(all)-1]
			}
			openers, more := map[int]string{}, map[int][]string{}
			for seed := 2; seed <= 4; seed++ {
				openers[seed] = post(seed)
			}
			for i := 0; i < tc.sweeps; i++ {
				awaitSweep(t, bs)
			}
			for seed := 1; seed <= 4; seed++ {
				more[seed] = []string{post(seed), post(seed)}
			}
			waitMetric(t, ts.URL, "mhpc_serve_singleflight_hits_total", 6)

			deleted := map[string]bool{}
			for _, id := range []string{openers[2], more[3][0], openers[4], more[4][0], more[4][1]} {
				cancelJob(t, ts.URL, id)
				deleted[id] = true
			}
			close(bs.release)
			// Seed 4 lost every waiter: resubmitted, it is stored by the
			// shared sweep or run again.
			post(4)

			var cached, coalesced int64
			for _, id := range all {
				st := waitJob(t, ts.URL, id)
				want := jobDone
				if deleted[id] {
					want = jobCancelled
				}
				if st.State != string(want) {
					t.Errorf("job %s (deleted %v): state %q (%s), want %q", id, deleted[id], st.State, st.Error, want)
				}
				if st.Cached {
					cached++
				}
				if st.Coalesced {
					coalesced++
				}
			}
			jobs, hits := metric(t, ts.URL, "mhpc_serve_jobs_total"), metric(t, ts.URL, "mhpc_serve_cache_hits_total")
			joined, enrolled := metric(t, ts.URL, "mhpc_serve_singleflight_hits_total"), metric(t, ts.URL, "mhpc_serve_batch_jobs_total")
			if jobs != int64(len(all)) || jobs != hits+joined+enrolled {
				t.Errorf("serve.jobs = %d (%d submitted), cache_hits + singleflight_hits + batch_jobs = %d + %d + %d",
					jobs, len(all), hits, joined, enrolled)
			}
			if cached != hits || coalesced != joined {
				t.Errorf("%d cached and %d coalesced jobs, counters say %d and %d", cached, coalesced, hits, joined)
			}
		})
	}
}
