package main

// Tests for the resumable-run plane: a failed or cancelled attempt
// keeps its checkpoint ledger, a re-POST of the same key resumes from
// the committed progress (serve.resumes, resumed_from), and success
// discards the ledger — in memory and on disk (the partials/
// namespace under the store dir).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mobilehpc/internal/harness"
)

// resumableRun is a fake runner shaped like the harness pool's ledger
// protocol: it "computes" two sub-runs through the bound ledger, and
// fails after committing the first until failures is exhausted.
func resumableRun(failures *int) func(ctx context.Context, p runParams) ([]byte, error) {
	return func(ctx context.Context, p runParams) ([]byte, error) {
		led := harness.BoundLedger()
		if led == nil {
			return nil, errors.New("no ledger bound to the run goroutine")
		}
		a, ok := led.Lookup("subrun/a")
		if !ok {
			a = []byte("rows-a")
			if err := led.Commit("subrun/a", a); err != nil {
				return nil, err
			}
		}
		if *failures > 0 {
			*failures--
			return nil, errors.New("injected mid-run crash")
		}
		b, ok := led.Lookup("subrun/b")
		if !ok {
			b = []byte("rows-b")
			if err := led.Commit("subrun/b", b); err != nil {
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
	nled, nfrac := len(s.ledgers), len(s.resumeFrac)
	s.mu.Unlock()
	if nled != 0 || nfrac != 0 {
		t.Errorf("after success: %d open ledgers, %d pending fractions, want 0/0", nled, nfrac)
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
