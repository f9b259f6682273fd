package main

// End-to-end smoke test of the real binary: build mhpcd, exec it,
// exercise the cache and admission paths over real HTTP, SIGTERM it
// mid-run and require that the drain stores a run that finishes within
// the grace, aborts one that does not (keeping its progress), and
// exits 0, then run a coalescing daemon under concurrent jobs and
// SIGKILL it mid-sweep: restarted on the same store dir, it resumes
// the sweep from its ledgers. Gated behind MHPC_SERVE_SMOKE=1 because
// it compiles and forks servers — the Makefile serve-smoke target
// (wired into `make check`) sets the gate.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// freePort asks the kernel for an unused TCP port.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// buildMhpcd compiles the package under test into a temp dir.
func buildMhpcd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mhpcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building mhpcd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one live mhpcd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startMhpcd execs bin on a free loopback port with args, waits until
// /healthz answers 200, and kills the process at test end if it is
// still running.
func startMhpcd(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	d := &daemon{
		cmd:    exec.Command(bin, append([]string{"-addr", addr}, args...)...),
		base:   "http://" + addr,
		exited: make(chan error, 1),
	}
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	t.Cleanup(func() { d.cmd.Process.Kill() })
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("mhpcd never became healthy")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires exit status 0 within 15s.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("mhpcd exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("mhpcd did not exit within 15s of SIGTERM")
	}
}

func TestServeSmoke(t *testing.T) {
	if os.Getenv("MHPC_SERVE_SMOKE") != "1" {
		t.Skip("set MHPC_SERVE_SMOKE=1 to run the mhpcd end-to-end smoke test")
	}
	bin := buildMhpcd(t)

	// concurrency 1 + queue 0 makes the overflow path exercisable with
	// a single slow occupant. The store directory outlives each daemon,
	// so what a drain kept is visible to the next one.
	storeDir := filepath.Join(t.TempDir(), "results")
	start := func(drain string) *daemon {
		return startMhpcd(t, bin, "-j", "2", "-concurrency", "1", "-queue", "0",
			"-store-dir", storeDir, "-timeout", "5m", "-drain", drain)
	}
	d := start("1m")
	base := d.base

	// Uncached run, then a cached replay of the same request.
	first := runJob(t, base, "/run/table1?quick=1&seed=1")
	if first.State != string(jobDone) || first.Cached {
		t.Fatalf("first run: state %q cached %v (%s), want a fresh done run", first.State, first.Cached, first.Error)
	}
	if fetchResult(t, base, first.ResultKey).Output == "" {
		t.Error("first run stored empty output")
	}
	again := runJob(t, base, "/run/table1?quick=1&seed=1")
	if !again.Cached || again.ResultKey != first.ResultKey {
		t.Errorf("replay: cached=%v key %q; want a cache hit on %q", again.Cached, again.ResultKey, first.ResultKey)
	}

	// Overflow: occupy the single slot with a slow full-fidelity run,
	// then require a second distinct job to fail at capacity.
	postJob(t, base, "/run/fig6?seed=9")
	waitMetric(t, base, "mhpc_serve_inflight", 1)
	if busy := runJob(t, base, "/run/table3?quick=1"); busy.State != string(jobFailed) || busy.Error != errBusy.Error() {
		t.Fatalf("overflow job: state %q error %q, want failed with %q", busy.State, busy.Error, errBusy)
	}

	// SIGTERM mid-run with no request open on the slow job: the drain
	// must give it the grace period, so it finishes and stores its
	// result, and the next daemon serves it from the store.
	d.stop(t)
	d2 := start("1s")
	if st := runJob(t, d2.base, "/run/fig6?seed=9"); st.State != string(jobDone) || !st.Cached {
		t.Fatalf("drained run: state %q cached %v (%s), want its stored result", st.State, st.Cached, st.Error)
	}

	// A straggler past the 1s grace, again with nobody watching, is
	// aborted mid-run and exits 0; its committed progress is kept, so
	// the rerun resumes it (or hits the store, had it finished in time).
	postJob(t, d2.base, "/run/fig6?seed=10")
	waitMetric(t, d2.base, "mhpc_ckpt_commits_total", 1)
	d2.stop(t)
	d3 := start("1s")
	switch st := runJob(t, d3.base, "/run/fig6?seed=10"); {
	case st.State != string(jobDone):
		t.Fatalf("straggler rerun: state %q (%s), want done", st.State, st.Error)
	case st.Cached:
		t.Log("straggler finished within the grace")
	case st.ResumedFrom > 0:
		t.Logf("straggler was aborted; rerun resumed %.0f%% from its ledger", 100*st.ResumedFrom)
	default:
		t.Fatal("straggler lost: the rerun neither hit the store nor resumed")
	}
	d3.stop(t)

	// Coalescing: a -batch-window daemon under concurrent jobs over a
	// few keys must merge them into sweeps and store, per key, exactly
	// the bytes a solo in-process run renders.
	batchDir := filepath.Join(t.TempDir(), "batched")
	startBatched := func() *daemon {
		return startMhpcd(t, bin, "-j", "2", "-concurrency", "2", "-queue", "16",
			"-batch-window", "10ms", "-store-dir", batchDir, "-timeout", "5m", "-drain", "1s")
	}
	bd := startBatched()
	ids := []string{"table1", "table3", "fig7"}
	want := map[string]string{}
	for _, id := range ids {
		p := runParams{ID: id, Quick: true}
		out, err := runSweepBytes(context.Background(), p.family(), []runParams{p}, 2)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = string(out[p.key()])
	}
	paths := make([]string, 12)
	for i := range paths {
		paths[i] = fmt.Sprintf("/run/%s?quick=1&seed=%d", ids[i%len(ids)], i%2+1)
	}
	for i, st := range runJobs(t, bd.base, paths) {
		if st.State != string(jobDone) {
			t.Errorf("batched %s: state %q (%s)", paths[i], st.State, st.Error)
			continue
		}
		if got := fetchResult(t, bd.base, st.ResultKey).Output; got != want[ids[i%len(ids)]] {
			t.Errorf("batched %s: stored bytes differ from a solo run", paths[i])
		}
	}
	if m := metric(t, bd.base, "mhpc_serve_batches_total"); m <= 0 {
		t.Errorf("serve.batches = %d, want > 0", m)
	}

	// Kill mid-sweep: SIGKILL the batched daemon once a full-size
	// fig6+green500 sweep has committed a task, restart it on the same
	// store dir and resubmit. The rerun must resume from the ledgers
	// and store the bytes of an uninterrupted sweep (fresh seeds, same
	// simulations).
	killed := []string{"/run/fig6?seed=21", "/run/green500?seed=21"}
	commits := metric(t, bd.base, "mhpc_ckpt_commits_total")
	for _, p := range killed {
		postJob(t, bd.base, p)
	}
	waitMetric(t, bd.base, "mhpc_ckpt_commits_total", commits+1)
	if err := bd.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-bd.exited
	bd2 := startBatched()
	resumed := runJobs(t, bd2.base, killed)
	fresh := runJobs(t, bd2.base, []string{"/run/fig6?seed=22", "/run/green500?seed=22"})
	for i, st := range resumed {
		if st.State != string(jobDone) || fresh[i].State != string(jobDone) {
			t.Fatalf("%s after the kill: state %q (%s), fresh %q (%s)", killed[i], st.State, st.Error, fresh[i].State, fresh[i].Error)
		}
		if fetchResult(t, bd2.base, st.ResultKey).Output != fetchResult(t, bd2.base, fresh[i].ResultKey).Output {
			t.Errorf("%s: resumed bytes differ from an uninterrupted sweep", killed[i])
		}
	}
	if m := metric(t, bd2.base, "mhpc_serve_resumes_total"); m <= 0 {
		t.Errorf("serve.resumes = %d after a SIGKILL mid-sweep, want > 0", m)
	}
	bd2.stop(t)
}
