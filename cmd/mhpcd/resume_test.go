package main

// Tests for the resumable-run plane: a failed or cancelled attempt
// keeps its checkpoint ledger, a re-POST of the same key resumes from
// the committed progress (serve.resumes, resumed_from), and success
// discards the ledger — in memory and on disk (the partials/
// namespace under the store dir).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mobilehpc/internal/harness"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/store"
)

// resumableRun is a fake runner shaped like the harness pool's ledger
// protocol: it "computes" two sub-runs of p's experiment through the
// bound ledger (labelled as the pool labels them, so the sweep routes
// them to p's ledger), and fails after committing the first until
// failures is exhausted.
func resumableRun(failures *int) func(ctx context.Context, p runParams) ([]byte, error) {
	return func(ctx context.Context, p runParams) ([]byte, error) {
		led := harness.BoundLedger()
		if led == nil {
			return nil, errors.New("no ledger bound to the run goroutine")
		}
		a, ok := led.Lookup("subrun/" + p.ID + "/a")
		if !ok {
			a = []byte("rows-a")
			if err := led.Commit("subrun/"+p.ID+"/a", a); err != nil {
				return nil, err
			}
		}
		if *failures > 0 {
			*failures--
			return nil, errors.New("injected mid-run crash")
		}
		b, ok := led.Lookup("subrun/" + p.ID + "/b")
		if !ok {
			b = []byte("rows-b")
			if err := led.Commit("subrun/"+p.ID+"/b", b); err != nil {
				return nil, err
			}
		}
		return []byte(string(a) + "|" + string(b)), nil
	}
}

// TestJobResume: attempt 1 commits partial progress and fails; the
// re-POST of the identical request resumes — the committed sub-run is
// served from the ledger (serve.resumes fires, resumed_from lands in
// the job status), the output matches an uninterrupted run, and the
// settled ledger is discarded.
func TestJobResume(t *testing.T) {
	failures := 1
	s := mustServer(t, testConfig(resumableRun(&failures)))
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	st := postJob(t, ts.URL, "/run/fig6?quick=1")
	failed := waitJobState(t, ts.URL, st.Job, string(jobFailed))
	if failed.Error == "" || failed.ResumedFrom != 0 {
		t.Fatalf("failed attempt: %+v, want an error and no resumed_from", failed)
	}
	if got := metric(t, ts.URL, "mhpc_serve_resumes_total"); got != 0 {
		t.Fatalf("serve.resumes = %d after first attempt, want 0", got)
	}
	s.mu.Lock()
	nled := len(s.ledgers)
	s.mu.Unlock()
	if nled != 1 {
		t.Fatalf("open ledgers after failure = %d, want 1 (kept for resume)", nled)
	}

	st2 := postJob(t, ts.URL, "/run/fig6?quick=1")
	done := waitJobState(t, ts.URL, st2.Job, string(jobDone))
	// One of the two sub-runs was restored, one executed: 1/(1+1).
	if done.ResumedFrom != 0.5 {
		t.Errorf("resumed_from = %v, want 0.5", done.ResumedFrom)
	}
	if got := metric(t, ts.URL, "mhpc_serve_resumes_total"); got != 1 {
		t.Errorf("serve.resumes = %d, want 1", got)
	}
	if res := fetchResult(t, ts.URL, done.ResultKey); res.Output != "rows-a|rows-b" {
		t.Errorf("resumed output = %q, want the uninterrupted bytes", res.Output)
	}
	s.mu.Lock()
	nled = len(s.ledgers)
	s.mu.Unlock()
	if nled != 0 {
		t.Errorf("after success: %d open ledgers, want 0", nled)
	}
}

// TestResumeLedgerOnDisk: with a store dir, the failed attempt's
// ledger is a file under partials/ that survives the failure (the
// actual crash-resume artefact) and is removed once a resumed attempt
// succeeds.
func TestResumeLedgerOnDisk(t *testing.T) {
	dir := t.TempDir()
	failures := 1
	cfg := testConfig(resumableRun(&failures))
	cfg.storeDir = dir
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	key := runParams{ID: "fig6", Quick: true}.key()
	path := filepath.Join(dir, "partials", key+".ckpt")

	if st := runJob(t, ts.URL, "/run/fig6?quick=1"); st.State != string(jobFailed) || st.Error != "injected mid-run crash" {
		t.Fatalf("first attempt: state %q error %q, want the injected failure", st.State, st.Error)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no ledger file after failed attempt: %v", err)
	}

	st := runJob(t, ts.URL, "/run/fig6?quick=1")
	if st.State != string(jobDone) {
		t.Fatalf("resume attempt: state %q (%s)", st.State, st.Error)
	}
	if res := fetchResult(t, ts.URL, st.ResultKey); res.Output != "rows-a|rows-b" {
		t.Fatalf("resume attempt output %q", res.Output)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("ledger file survived success: %v", err)
	}
	if got := metric(t, ts.URL, "mhpc_serve_resumes_total"); got != 1 {
		t.Errorf("serve.resumes = %d, want 1", got)
	}
}

// TestResumeWaitsForCancelledSweep: two sweeps never hold one key's
// ledger at once. A job whose key sits on a cancelled sweep that is
// still unwinding waits for it, then resumes from the ledger that
// sweep closed, and every commit of both attempts reaches the file.
func TestResumeWaitsForCancelledSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "partials", runParams{ID: "fig6", Quick: true}.key()+".ckpt")
	started, unwind, unwound := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	var lines atomic.Int64 // ledger lines on disk after the resumed commit
	cfg := testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		led := harness.BoundLedger()
		if calls.Add(1) == 1 {
			err := led.Commit("subrun/fig6/a", []byte("rows-a"))
			close(started)
			<-ctx.Done()
			<-unwind
			close(unwound)
			return nil, errors.Join(ctx.Err(), err)
		}
		<-unwound
		// A sweep still holding this ledger would settle it by now.
		time.Sleep(20 * time.Millisecond)
		a, ok := led.Lookup("subrun/fig6/a")
		if !ok {
			return nil, errors.New("the resumed attempt missed the committed sub-run")
		}
		if err := led.Commit("subrun/fig6/b", []byte("rows-b")); err != nil {
			return nil, err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		lines.Store(int64(bytes.Count(raw, []byte("\n"))))
		return []byte(string(a) + "|rows-b"), nil
	})
	cfg.storeDir = dir
	cfg.batchWindow, cfg.batchMax = 10*time.Millisecond, 32
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	first := postJob(t, ts.URL, "/run/fig6?quick=1")
	<-started
	cancelJob(t, ts.URL, first.Job)
	second := postJob(t, ts.URL, "/run/fig6?quick=1")
	time.Sleep(50 * time.Millisecond) // windows close; the first sweep still unwinds
	close(unwind)

	st := waitJob(t, ts.URL, second.Job)
	if st.State != string(jobDone) || st.ResumedFrom <= 0 {
		t.Fatalf("second job: state %q resumed_from %v (%s), want a done resume", st.State, st.ResumedFrom, st.Error)
	}
	if res := fetchResult(t, ts.URL, st.ResultKey); res.Output != "rows-a|rows-b" {
		t.Errorf("resumed output = %q", res.Output)
	}
	if n := lines.Load(); n != 2 {
		t.Errorf("ledger file held %d lines after the resumed commit, want 2 (one per commit)", n)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d attempts, want 2", n)
	}
}

// TestJobCancelTerminalNoCount: DELETE on a terminal job reports its
// status without bumping serve.jobs_cancelled — the over-counting bug
// this PR fixes — while DELETE on a live job counts exactly once.
func TestJobCancelTerminalNoCount(t *testing.T) {
	started := make(chan struct{}, 1)
	cfg := testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		if p.ID == "fig6" {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return echoRun(ctx, p)
	})
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	del := func(id string) (int, jobStatus) {
		t.Helper()
		req, _ := http.NewRequest("DELETE", ts.URL+"/job/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st jobStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, st
	}

	// A job that finishes cleanly: DELETE must be a read, not a cancel.
	doneJob := postJob(t, ts.URL, "/run/table1?quick=1")
	waitJobState(t, ts.URL, doneJob.Job, string(jobDone))
	for i := 0; i < 3; i++ {
		code, st := del(doneJob.Job)
		if code != http.StatusOK || st.State != string(jobDone) {
			t.Fatalf("DELETE terminal job: %d %q, want 200 done", code, st.State)
		}
	}
	if got := metric(t, ts.URL, "mhpc_serve_jobs_cancelled_total"); got != 0 {
		t.Fatalf("serve.jobs_cancelled = %d after deleting a done job, want 0", got)
	}

	// A live job: the first DELETE cancels and counts; repeats don't.
	live := postJob(t, ts.URL, "/run/fig6?quick=1")
	<-started
	if code, _ := del(live.Job); code != http.StatusOK {
		t.Fatalf("DELETE live job: %d", code)
	}
	waitJobState(t, ts.URL, live.Job, string(jobCancelled))
	for i := 0; i < 2; i++ {
		if code, st := del(live.Job); code != http.StatusOK || st.State != string(jobCancelled) {
			t.Fatalf("re-DELETE cancelled job: %d %q", code, st.State)
		}
	}
	if got := metric(t, ts.URL, "mhpc_serve_jobs_cancelled_total"); got != 1 {
		t.Errorf("serve.jobs_cancelled = %d, want exactly 1", got)
	}
}

// TestNewJobShortKey: job ids embed key[:8] for readability; a key
// shorter than 8 chars must degrade to the full key, not panic.
func TestNewJobShortKey(t *testing.T) {
	s := mustServer(t, testConfig(echoRun))
	j := s.newJob(runParams{ID: "table1"}, "ab12")
	if want := fmt.Sprintf("j%d-ab12", 1); j.id != want {
		t.Errorf("job id = %q, want %q", j.id, want)
	}
	j2 := s.newJob(runParams{ID: "table1"}, "0123456789abcdef")
	if want := "j2-01234567"; j2.id != want {
		t.Errorf("job id = %q, want %q", j2.id, want)
	}
}

// openFDs counts this process's open file descriptors, or -1 where
// the platform does not list them.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestFailedKeysPinNoDescriptors: on a store dir, a failed attempt
// closes its ledger and drops it from the server, keeping the file
// only when it holds progress. Forty failing keys — half committing
// a sub-run first, half committing nothing — leave no open ledger,
// the descriptor count at its baseline, and exactly one non-empty
// .ckpt file per committing key.
func TestFailedKeysPinNoDescriptors(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		if p.Seed%2 == 0 {
			if err := harness.BoundLedger().Commit("subrun/"+p.ID+"/a", []byte("rows")); err != nil {
				return nil, err
			}
		}
		return nil, errors.New("injected failure")
	})
	cfg.storeDir = dir
	s := mustServer(t, cfg)
	base := openFDs()

	const keys = 40
	for seed := 1; seed <= keys; seed++ {
		if _, err := s.batcher.submit(context.Background(), runParams{ID: "fig6", Seed: uint64(seed)}); err == nil {
			t.Fatalf("seed %d: injected failure was not reported", seed)
		}
	}
	s.mu.Lock()
	nled := len(s.ledgers)
	s.mu.Unlock()
	if nled != 0 {
		t.Errorf("%d ledgers still open after %d failed keys, want 0", nled, keys)
	}
	if base >= 0 {
		if got := openFDs(); got != base {
			t.Errorf("open descriptors %d after %d failed keys, want the baseline %d", got, keys, base)
		}
	}
	files, err := os.ReadDir(filepath.Join(dir, "partials"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if info, err := f.Info(); err != nil || info.Size() == 0 {
			t.Errorf("empty or unreadable ledger file %s (%v)", f.Name(), err)
		}
	}
	if len(files) != keys/2 {
		t.Errorf("%d ledger files, want one per committing key (%d)", len(files), keys/2)
	}
}

// TestBatchedSweepResumesAfterAbort is the kill-mid-sweep wall. A
// batched server on a store dir runs full fig6 and green500 in one
// window and is aborted once the sweep has committed progress. A new
// server on the same directory takes both jobs again in one window:
// its sweep must execute strictly fewer pool tasks than an
// uninterrupted run, serve checkpoint hits, report resumed_from, and
// store exactly the bytes an unbatched server renders.
func TestBatchedSweepResumesAfterAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiment runs")
	}
	paths := []string{"/run/fig6", "/run/green500"}
	// Warm the process-lifetime once-values so their one-off
	// simulations land in no measured run's task count.
	if _, err := harness.Tables([]string{"fig6", "green500"}, harness.Options{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	// serve starts a server whose collector is the active one, so the
	// harness pool's counters land in it.
	serve := func(cfg serverConfig) (*server, *httptest.Server) {
		s := mustServer(t, cfg)
		obs.SetActive(s.col)
		ts := httptest.NewServer(s.handler())
		t.Cleanup(func() {
			ts.Close()
			obs.SetActive(nil)
		})
		return s, ts
	}
	cfg := serverConfig{jobs: 2, concurrency: 1, queue: 4, timeout: 2 * time.Minute, cacheBytes: 1 << 20}

	// The uninterrupted truth: an unbatched server, one sweep per job.
	plain, pts := serve(cfg)
	want := map[string]string{}
	for _, p := range paths {
		st := runJob(t, pts.URL, p)
		if st.State != string(jobDone) {
			t.Fatalf("unbatched %s: state %q (%s)", p, st.State, st.Error)
		}
		want[p] = fetchResult(t, pts.URL, st.ResultKey).Output
	}
	fullTasks := plain.col.Counters()["pool.tasks"]

	// A window that only fills: both jobs, one sweep, fired at once.
	cfg.storeDir = t.TempDir()
	cfg.batchWindow, cfg.batchMax = time.Hour, len(paths)
	first, fts := serve(cfg)
	for _, p := range paths {
		postJob(t, fts.URL, p)
	}
	waitMetric(t, fts.URL, "mhpc_ckpt_commits_total", 1)
	first.abortRuns() // the drain deadline: the sweep unwinds mid-run
	deadline := time.Now().Add(30 * time.Second)
	for {
		first.mu.Lock()
		open := len(first.ledgers)
		first.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d ledgers still open after the abort", open)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if first.col.Counters()["serve.runs"] != 1 {
		t.Fatalf("first server ran %d sweeps, want 1", first.col.Counters()["serve.runs"])
	}
	fts.Close()
	first.store.Close()

	second, sts := serve(cfg)
	var resumed float64
	for i, st := range runJobs(t, sts.URL, paths) {
		if st.State != string(jobDone) || st.Cached {
			t.Fatalf("resumed %s: state %q cached %v (%s)", paths[i], st.State, st.Cached, st.Error)
		}
		if got := fetchResult(t, sts.URL, st.ResultKey).Output; got != want[paths[i]] {
			t.Errorf("resumed %s diverged from the unbatched run", paths[i])
		}
		resumed = max(resumed, st.ResumedFrom)
	}
	c := second.col.Counters()
	t.Logf("uninterrupted: %d tasks; resumed sweep: %d tasks, %d ckpt hits, resumed_from up to %.2f",
		fullTasks, c["pool.tasks"], c["ckpt.hits"], resumed)
	if c["serve.batches"] != 1 || c["serve.resumes"] == 0 {
		t.Errorf("serve.batches = %d, serve.resumes = %d; want one resumed sweep", c["serve.batches"], c["serve.resumes"])
	}
	if c["pool.tasks"] >= fullTasks {
		t.Errorf("resumed sweep executed %d pool tasks, want fewer than the uninterrupted %d", c["pool.tasks"], fullTasks)
	}
	if c["ckpt.hits"] == 0 || resumed == 0 {
		t.Errorf("ckpt.hits = %d, resumed_from = %v; want both > 0", c["ckpt.hits"], resumed)
	}
	if left, _ := os.ReadDir(filepath.Join(cfg.storeDir, "partials")); len(left) != 0 {
		t.Errorf("%d ledger files survived the resumed sweep's success", len(left))
	}
}

// TestLedgerRouteByOwner: a sweep's router hands a label only to the
// members whose experiment owns it; members sharing an id all receive
// each commit, and a lookup is served by the first that holds it.
func TestLedgerRouteByOwner(t *testing.T) {
	open := func() *store.Ledger {
		l, err := store.OpenLedger("", "00")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	seed1, seed2, other := open(), open(), open()
	r := ledgerRoute{"fig6": {leds: []*store.Ledger{seed1, seed2}}, "green500": {leds: []*store.Ledger{other}}}

	if err := r.Commit("subrun/fig6/n=4", []byte("rows")); err != nil {
		t.Fatal(err)
	}
	if seed1.Len() != 1 || seed2.Len() != 1 || other.Len() != 0 {
		t.Errorf("ledger sizes %d/%d/%d, want the commit in both fig6 members only", seed1.Len(), seed2.Len(), other.Len())
	}
	if err := r.Commit("subrun/table1/x", nil); err == nil {
		t.Error("a label no member owns was accepted")
	}
	if _, ok := r.Lookup("subrun/green500/n=4"); ok {
		t.Error("green500 served a label it never committed")
	}
	if data, ok := r.Lookup("subrun/fig6/n=4"); !ok || string(data) != "rows" {
		t.Errorf("fig6 lookup = %q, %v", data, ok)
	}
	if f := r["fig6"].resumedFrom(); f != 0.5 {
		t.Errorf("fig6 resumed_from = %v after one hit and one commit, want 0.5", f)
	}
}
