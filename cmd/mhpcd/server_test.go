package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilehpc/internal/obs"
)

// testConfig returns a config whose sweeps render each member with
// the fake runner run (echoRun, say, or one that blocks until
// released).
func testConfig(run func(ctx context.Context, p runParams) ([]byte, error)) serverConfig {
	return serverConfig{
		jobs: 1, concurrency: 2, queue: 2,
		timeout: time.Second, cacheBytes: 1 << 20,
		sweepFn: perMember(run),
	}
}

// perMember lifts a one-run fake into a sweep executor that renders
// the members in order and fails the sweep on the first error.
func perMember(run func(ctx context.Context, p runParams) ([]byte, error)) func(context.Context, famKey, []runParams, int) (map[string][]byte, error) {
	return func(ctx context.Context, fam famKey, ps []runParams, jobs int) (map[string][]byte, error) {
		out := make(map[string][]byte, len(ps))
		for _, p := range ps {
			b, err := run(ctx, p)
			if err != nil {
				return nil, err
			}
			out[p.key()] = b
		}
		return out, nil
	}
}

// mustServer builds a server (memory-only store unless cfg.storeDir is
// set) or fails the test.
func mustServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.store.Close() })
	return s
}

// echoRun is the trivial deterministic runner used where execution
// details don't matter.
func echoRun(ctx context.Context, p runParams) ([]byte, error) {
	return []byte(fmt.Sprintf("run %s seed=%d quick=%v csv=%v", p.ID, p.Seed, p.Quick, p.CSV)), nil
}

// postCode POSTs base+path and returns the status code and body, for
// the requests refused before a job exists (404, 400, 503).
func postCode(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// runJob submits base+path as a job and polls it to a terminal state.
func runJob(t *testing.T, base, path string) jobStatus {
	t.Helper()
	return waitJob(t, base, postJob(t, base, path).Job)
}

// runJobs submits every path at once, one goroutine each, then waits
// for each job to reach a terminal state; statuses come back in path
// order.
func runJobs(t *testing.T, base string, paths []string) []jobStatus {
	t.Helper()
	ids := make([]string, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := submitJob(base, path)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.Job
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	out := make([]jobStatus, len(paths))
	for i, id := range ids {
		out[i] = waitJob(t, base, id)
	}
	return out
}

// fetchResult reads one stored result by its content key.
func fetchResult(t *testing.T, base, key string) runResult {
	t.Helper()
	resp, err := http.Get(base + "/result/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /result/%s: %d", key, resp.StatusCode)
	}
	var res runResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// exposition is one parsed /metrics scrape.
type exposition struct {
	types   map[string]string       // family -> counter|gauge|histogram
	buckets map[string][]promBucket // histogram family -> cumulative buckets
	values  map[string]int64        // unlabelled samples (incl. _sum/_count)
}

// promBucket is one cumulative histogram bucket.
type promBucket struct {
	le  float64
	cum int64
}

// parseExposition parses Prometheus text exposition strictly: every
// sample must sit under a declared TYPE, names must be legal, values
// integers, and labelled samples histogram buckets.
func parseExposition(t *testing.T, raw []byte) exposition {
	t.Helper()
	e := exposition{types: map[string]string{}, buckets: map[string][]promBucket{}, values: map[string]int64{}}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			e.types[f[2]] = f[3]
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, label := f[0], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
			name, label = name[:i], name[i+1:len(name)-1]
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
				t.Fatalf("illegal metric name %q", name)
			}
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		// Resolve the family this sample belongs to.
		switch {
		case label != "":
			fam := strings.TrimSuffix(name, "_bucket")
			if fam == name || e.types[fam] != "histogram" {
				t.Fatalf("labelled sample %q outside a histogram family", line)
			}
			le := strings.TrimSuffix(strings.TrimPrefix(label, `le="`), `"`)
			b := promBucket{cum: v}
			if le == "+Inf" {
				b.le = math.Inf(1)
			} else if b.le, err = strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			e.buckets[fam] = append(e.buckets[fam], b)
		default:
			fam := name
			for _, suf := range []string{"_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); base != name && e.types[base] == "histogram" {
					fam = base
				}
			}
			if _, ok := e.types[fam]; !ok {
				t.Fatalf("sample %q has no TYPE declaration", line)
			}
			e.values[name] = v
		}
	}
	return e
}

// metric scrapes base/metrics and returns one unlabelled sample by
// its exposition name, e.g. mhpc_serve_runs_total (0 when absent).
func metric(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, raw).values[name]
}

// waitMetric polls base/metrics until the named sample reaches at
// least want, failing the test after 10s.
func waitMetric(t *testing.T, base, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, base, name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d", name, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, testConfig(echoRun)).handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct{ ID, Title, Paper string }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("empty experiment list")
	}
	ids := map[string]bool{}
	for _, e := range list {
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig6"} {
		if !ids[want] {
			t.Errorf("experiment %q missing from listing", want)
		}
	}
}

func TestUnknownExperimentIs404(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, testConfig(echoRun)).handler())
	defer ts.Close()
	if code, body := postCode(t, ts.URL, "/run/nope"); code != http.StatusNotFound {
		t.Fatalf("status %d (%s), want 404", code, body)
	}
}

func TestBadParamsAre400(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, testConfig(echoRun)).handler())
	defer ts.Close()
	for _, q := range []string{"?quick=maybe", "?csv=2x", "?seed=-1", "?seed=abc"} {
		if code, _ := postCode(t, ts.URL, "/run/table1"+q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

// The cache + /result contract: a repeated identical request is served
// from the store (cached, runner not re-invoked), and the job's result
// key fetches the run's bytes from /result.
func TestCacheAndResultEndpoint(t *testing.T) {
	var runs int64
	var mu sync.Mutex
	ts := httptest.NewServer(mustServer(t, testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return echoRun(ctx, p)
	})).handler())
	defer ts.Close()

	first := runJob(t, ts.URL, "/run/table1?quick=1&seed=7")
	if first.State != string(jobDone) || first.Cached {
		t.Fatalf("first request: state %q cached %v, want a fresh done run", first.State, first.Cached)
	}
	second := runJob(t, ts.URL, "/run/table1?quick=1&seed=7")
	if second.State != string(jobDone) || !second.Cached || second.ResultKey != first.ResultKey {
		t.Fatalf("repeat: state %q cached %v key %q, want a cached hit on %q",
			second.State, second.Cached, second.ResultKey, first.ResultKey)
	}
	mu.Lock()
	if runs != 1 {
		t.Errorf("runner invoked %d times, want 1", runs)
	}
	mu.Unlock()

	// A different seed is a different content address: fresh run.
	salted := runJob(t, ts.URL, "/run/table1?quick=1&seed=8")
	if salted.State != string(jobDone) || salted.Cached || salted.ResultKey == first.ResultKey {
		t.Errorf("salted run: state %q cached %v key %q vs %q", salted.State, salted.Cached, salted.ResultKey, first.ResultKey)
	}

	fetched := fetchResult(t, ts.URL, first.ResultKey)
	if want := "run table1 seed=7 quick=true csv=false"; !fetched.Cached || fetched.Output != want {
		t.Errorf("/result returned cached=%v output %q, want %q", fetched.Cached, fetched.Output, want)
	}
	if resp, err := http.Get(ts.URL + "/result/deadbeef"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: %v %v, want 404", resp.StatusCode, err)
	}
}

// Singleflight: N identical jobs in flight together execute the runner
// exactly once; the followers coalesce onto the leader's result key.
func TestSingleflightCoalescesIdenticalRequests(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	var runs int64
	var mu sync.Mutex
	ts := httptest.NewServer(mustServer(t, testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		started <- struct{}{}
		<-release
		return echoRun(ctx, p)
	})).handler())
	defer ts.Close()

	const n = 6
	ids := make([]string, n)
	for i := range ids {
		ids[i] = postJob(t, ts.URL, "/run/fig6?quick=1&seed=42").Job
	}
	<-started // leader is inside the runner
	// Hold the leader until every follower has registered on its
	// flight entry (each bumps singleflight_hits just before
	// blocking), so none of them can race past to a cache hit.
	waitMetric(t, ts.URL, "mhpc_serve_singleflight_hits_total", n-1)
	close(release)

	var coalesced int
	var key string
	for _, id := range ids {
		st := waitJob(t, ts.URL, id)
		if st.State != string(jobDone) {
			t.Fatalf("job ended %q (%s)", st.State, st.Error)
		}
		if key == "" {
			key = st.ResultKey
		} else if st.ResultKey != key {
			t.Fatal("divergent result keys across coalesced requests")
		}
		if st.Coalesced {
			coalesced++
		}
	}
	mu.Lock()
	got := runs
	mu.Unlock()
	if got != 1 {
		t.Errorf("runner executed %d times for %d identical requests, want 1", got, n)
	}
	if coalesced != n-1 {
		t.Errorf("%d jobs reported coalesced, want %d", coalesced, n-1)
	}
	if m := metric(t, ts.URL, "mhpc_serve_runs_total"); m != 1 {
		t.Errorf("serve.runs = %d, want 1", m)
	}
}

// Admission control: with one slot and no waiting room, a second
// distinct job fails with errBusy while the first still runs.
func TestOverflowIs429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg := testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return echoRun(ctx, p)
	})
	cfg.concurrency, cfg.queue = 1, 0
	ts := httptest.NewServer(mustServer(t, cfg).handler())
	defer ts.Close()

	occupant := postJob(t, ts.URL, "/run/table1?quick=1")
	<-started
	st := runJob(t, ts.URL, "/run/fig6?quick=1")
	if st.State != string(jobFailed) || st.Error != errBusy.Error() {
		t.Fatalf("overflow job: state %q error %q, want failed with %q", st.State, st.Error, errBusy)
	}
	if m := metric(t, ts.URL, "mhpc_serve_rejected_total"); m != 1 {
		t.Errorf("serve.rejected = %d, want 1", m)
	}
	close(release)
	waitJobState(t, ts.URL, occupant.Job, string(jobDone))
}

// A run that exceeds -timeout is cancelled (the runner sees its
// context expire) and its job fails with the deadline error.
func TestTimeoutIs504(t *testing.T) {
	cfg := testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	cfg.timeout = 20 * time.Millisecond
	ts := httptest.NewServer(mustServer(t, cfg).handler())
	defer ts.Close()
	st := runJob(t, ts.URL, "/run/table1?quick=1")
	if st.State != string(jobFailed) || st.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("state %q error %q, want failed with %q", st.State, st.Error, context.DeadlineExceeded)
	}
	if m := metric(t, ts.URL, "mhpc_serve_timeouts_total"); m != 1 {
		t.Errorf("serve.timeouts = %d, want 1", m)
	}
}

// Draining: healthz flips to 503 and new runs are refused, while
// /metrics stays reachable for the final scrape.
func TestDrainRefusesNewWork(t *testing.T) {
	s := mustServer(t, testConfig(echoRun))
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	s.beginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()
	if code, _ := postCode(t, ts.URL, "/run/table1?quick=1"); code != http.StatusServiceUnavailable {
		t.Errorf("run during drain: status %d, want 503", code)
	}
	if resp, err := http.Get(ts.URL + "/metrics"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("metrics during drain: %v %v, want 200", resp.StatusCode, err)
	}
}

// The drain waits on submitted jobs, not only on open requests: a job
// that nobody is watching still holds the drain until it finishes and
// stores its result, and one that outlives the grace is aborted and
// ends cancelled.
func TestDrainWaitsForJobs(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	cfg := testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		started <- struct{}{}
		if p.Seed == 1 {
			<-release
			return echoRun(ctx, p)
		}
		<-ctx.Done() // the straggler runs until aborted
		return nil, ctx.Err()
	})
	cfg.timeout = time.Minute
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	finishing := postJob(t, ts.URL, "/run/table1?seed=1")
	straggler := postJob(t, ts.URL, "/run/table1?seed=2")
	<-started
	<-started
	s.beginDrain()

	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.waitRuns(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waitRuns with two live jobs: %v, want a deadline error", err)
	}
	close(release)
	if st := waitJob(t, ts.URL, finishing.Job); st.State != string(jobDone) {
		t.Fatalf("finishing job ended %q (%s), want done", st.State, st.Error)
	} else if got := fetchResult(t, ts.URL, st.ResultKey).Output; got != "run table1 seed=1 quick=false csv=false" {
		t.Errorf("finishing job stored %q", got)
	}

	s.abortRuns()
	if err := s.waitRuns(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := getJob(t, ts.URL, straggler.Job); st.State != string(jobCancelled) {
		t.Errorf("straggler ended %q (%s), want cancelled by the abort", st.State, st.Error)
	}
}

// The store is the only way output reaches a client, so a zero budget
// is refused and a result larger than the whole budget fails its job —
// leader and coalesced followers alike — instead of ending done with a
// result key that 404s.
func TestResultOverStoreBudgetFails(t *testing.T) {
	cfg := testConfig(echoRun)
	cfg.cacheBytes = 0
	if _, err := newServer(cfg); err == nil {
		t.Error("newServer accepted a zero result-store budget")
	}

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg = testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		started <- struct{}{}
		<-release
		return echoRun(ctx, p)
	})
	cfg.cacheBytes = 16 // smaller than any envelope
	ts := httptest.NewServer(mustServer(t, cfg).handler())
	defer ts.Close()

	leader := postJob(t, ts.URL, "/run/table1?quick=1")
	<-started
	follower := postJob(t, ts.URL, "/run/table1?quick=1")
	waitMetric(t, ts.URL, "mhpc_serve_singleflight_hits_total", 1)
	close(release)
	for _, id := range []string{leader.Job, follower.Job} {
		st := waitJob(t, ts.URL, id)
		if st.State != string(jobFailed) || !strings.Contains(st.Error, "exceeds the 16-byte result-store budget") {
			t.Errorf("job %s: state %q error %q, want failed over the store budget", id, st.State, st.Error)
		}
		if st.ResultKey != "" {
			t.Errorf("job %s: failed job carries result_key %q", id, st.ResultKey)
		}
	}
}

// Strict-LRU cache bound: with a byte budget that fits exactly two
// entries, re-reading the older entry protects it — the *least
// recently used* entry is the one evicted, not the oldest-inserted
// (the FIFO this cache used to be).
func TestCacheEvictionIsLRU(t *testing.T) {
	// Measure one stored envelope on a throwaway server (echoRun output
	// is the same length for every single-digit seed, so all three
	// entries below store the same number of bytes).
	probe := mustServer(t, testConfig(echoRun))
	pts := httptest.NewServer(probe.handler())
	runJob(t, pts.URL, "/run/table1?quick=1&seed=1")
	entryBytes := probe.store.Bytes()
	pts.Close()
	if entryBytes <= 0 {
		t.Fatalf("probe entry size %d", entryBytes)
	}

	cfg := testConfig(echoRun)
	cfg.cacheBytes = 2*entryBytes + entryBytes/2 // two entries fit, three do not
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	first := runJob(t, ts.URL, "/run/table1?quick=1&seed=1")
	second := runJob(t, ts.URL, "/run/table1?quick=1&seed=2")
	// Touch seed=1: it becomes most-recently-used, so seed=2 is now
	// the LRU tail.
	fetchResult(t, ts.URL, first.ResultKey)
	runJob(t, ts.URL, "/run/table1?quick=1&seed=3") // evicts seed=2, not seed=1

	resp, err := http.Get(ts.URL + "/result/" + second.ResultKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("LRU entry (seed=2) still served: %d", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/result/" + first.ResultKey); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("touched entry (seed=1) evicted: %v %v", resp.StatusCode, err)
	}
	if m := metric(t, ts.URL, "mhpc_store_evictions_total"); m != 1 {
		t.Errorf("store.evictions = %d, want 1", m)
	}
	if st := runJob(t, ts.URL, "/run/table1?quick=1&seed=2"); st.State != string(jobDone) || st.Cached {
		t.Errorf("evicted entry: state %q cached %v, want a fresh done run", st.State, st.Cached)
	}
}

// One real-registry integration run: the default runner executes
// table1 in quick mode under a generous timeout and returns a rendered
// table, proving the HTTP layer and the simulation substrate actually
// meet.
func TestRealRegistryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real experiment run")
	}
	cfg := serverConfig{jobs: 2, concurrency: 1, queue: 1, timeout: 2 * time.Minute, cacheBytes: 1 << 20}
	ts := httptest.NewServer(mustServer(t, cfg).handler())
	defer ts.Close()
	st := runJob(t, ts.URL, "/run/table1?quick=1")
	if st.State != string(jobDone) {
		t.Fatalf("state %q (%s)", st.State, st.Error)
	}
	res := fetchResult(t, ts.URL, st.ResultKey)
	if !strings.Contains(res.Output, "Table 1") {
		t.Errorf("unexpected output: %q", res.Output)
	}
	// A second request is a cache hit on the same bytes.
	if again := runJob(t, ts.URL, "/run/table1?quick=1"); !again.Cached || again.ResultKey != st.ResultKey {
		t.Errorf("replay: cached=%v key %q, want a cached hit on %q", again.Cached, again.ResultKey, st.ResultKey)
	}
}

// The daemon's collector lives as long as the process, so it must not
// grow per request: after 200 cold jobs (experiment, pool, Monte-Carlo
// chunk and injected-fault spans among them) it holds no finished
// spans and no open-span entries, while its counters still advance.
func TestColdJobsRetainNoSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("200 real experiment runs")
	}
	cfg := serverConfig{jobs: 1, concurrency: 1, queue: 1, timeout: time.Minute, cacheBytes: 64 << 20}
	s := mustServer(t, cfg)
	obs.SetActive(s.col)
	defer obs.SetActive(nil)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	ids := []string{"fig7", "stability", "latpenalty", "faultsweep"}
	const jobs = 200
	for seed := 1; seed <= jobs; seed++ {
		path := fmt.Sprintf("/run/%s?quick=1&seed=%d", ids[seed%len(ids)], seed)
		if st := runJob(t, ts.URL, path); st.State != string(jobDone) || st.Cached {
			t.Fatalf("%s: state %q cached=%v (%s), want a cold done job", path, st.State, st.Cached, st.Error)
		}
	}
	if finished, open := s.col.Retained(); finished != 0 || open != 0 {
		t.Errorf("collector holds %d finished spans and %d open-span entries after %d jobs, want none", finished, open, jobs)
	}
	c := s.col.Counters()
	if c["faults.injected"] == 0 || c["serve.runs"] != jobs {
		t.Errorf("faults.injected = %d, serve.runs = %d: counters stopped advancing", c["faults.injected"], c["serve.runs"])
	}
}
