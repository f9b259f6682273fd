package main

// Tests for the asynchronous job plane: lifecycle, cancellation
// latency and cleanliness, the SSE progress stream, the exact-deltas
// determinism contract, and the Prometheus exposition of /metrics.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mobilehpc/internal/harness"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
)

// submitJob submits an async run and returns the decoded 202
// envelope. It reports failure as an error, so it is safe to call from
// any goroutine.
func submitJob(base, path string) (jobStatus, error) {
	var st jobStatus
	resp, err := http.Post(base+path, "application/json", nil)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("POST %s: %d (%s), want 202", path, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("bad job envelope %q: %v", raw, err)
	}
	if st.Job == "" || st.StatusURL != "/job/"+st.Job || st.EventsURL != "/job/"+st.Job+"/events" {
		return st, fmt.Errorf("malformed job envelope: %+v", st)
	}
	return st, nil
}

// postJob is submitJob on the test goroutine, failing the test on error.
func postJob(t *testing.T, base, path string) jobStatus {
	t.Helper()
	st, err := submitJob(base, path)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// getJob fetches one job's status.
func getJob(t *testing.T, base, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(base + "/job/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /job/%s: %d", id, resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getJob(t, base, id)
		if st.State != string(jobPending) && st.State != string(jobRunning) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitJobState waits for the job to end and requires the wanted state.
func waitJobState(t *testing.T, base, id, want string) jobStatus {
	t.Helper()
	st := waitJob(t, base, id)
	if st.State != want {
		t.Fatalf("job %s ended %q (%s), want %q", id, st.State, st.Error, want)
	}
	return st
}

// readSSE decodes the next event from an SSE stream.
func readSSE(br *bufio.Reader) (string, jobEvent, error) {
	var typ, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", jobEvent{}, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && data != "":
			var ev jobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return "", jobEvent{}, fmt.Errorf("bad event data %q: %v", data, err)
			}
			return typ, ev, nil
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, testConfig(echoRun)).handler())
	defer ts.Close()

	for _, probe := range []struct {
		method, path string
	}{{"GET", "/job/nope"}, {"DELETE", "/job/nope"}, {"GET", "/job/nope/events"}} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	st := postJob(t, ts.URL, "/run/table1?quick=1&seed=5")
	switch st.State {
	case string(jobPending), string(jobRunning), string(jobDone):
	default:
		t.Fatalf("submit state %q", st.State)
	}
	done := waitJobState(t, ts.URL, st.Job, string(jobDone))
	if done.ResultKey == "" {
		t.Fatal("done job has no result_key")
	}
	resp, err := http.Get(ts.URL + "/result/" + done.ResultKey)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res runResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if want := "run table1 seed=5 quick=true csv=false"; res.Output != want {
		t.Errorf("result output %q, want %q", res.Output, want)
	}

	// Resubmitting the identical request is a job-shaped cache hit.
	st2 := postJob(t, ts.URL, "/run/table1?quick=1&seed=5")
	if got := waitJobState(t, ts.URL, st2.Job, string(jobDone)); !got.Cached || got.ResultKey != done.ResultKey {
		t.Errorf("replay job: cached=%v key=%q, want cached hit on %q", got.Cached, got.ResultKey, done.ResultKey)
	}
}

// DELETE /job/{id} must return promptly (well under the 100ms wall)
// while the run unwinds behind it, reach the cancelled state, and leak
// no goroutines.
func TestJobCancelFastAndClean(t *testing.T) {
	started := make(chan struct{}, 1)
	cfg := testConfig(func(ctx context.Context, p runParams) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ts := httptest.NewServer(mustServer(t, cfg).handler())
	defer ts.Close()
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	st := postJob(t, ts.URL, "/run/fig6?quick=1")
	<-started

	t0 := time.Now()
	req, _ := http.NewRequest("DELETE", ts.URL+"/job/"+st.Job, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("DELETE took %v, want < 100ms", elapsed)
	}
	final := waitJobState(t, ts.URL, st.Job, string(jobCancelled))
	if final.Error == "" {
		t.Error("cancelled job reports no error cause")
	}

	// The job goroutine, its context watcher, and our connections must
	// all be gone once the dust settles.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cancel: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The SSE stream opens with a state event, heartbeats telemetry deltas
// at the requested cadence, and closes with the final delta, the
// rendered table, and a done event — in that order, seq increasing.
func TestJobEventsStream(t *testing.T) {
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
	ts := httptest.NewServer(mustServer(t, cfg).handler())
	defer ts.Close()

	st := postJob(t, ts.URL, "/run/fig6?quick=1")
	<-started

	if resp, err := http.Get(ts.URL + st.EventsURL + "?interval=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus interval: %v %v, want 400", resp.StatusCode, err)
	}

	resp, err := http.Get(ts.URL + st.EventsURL + "?interval=5ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	var types []string
	var lastSeq int64
	telemetry, released := 0, false
	for {
		typ, ev, err := readSSE(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Schema != jobEventSchema || ev.Job != st.Job || ev.Type != typ {
			t.Fatalf("malformed event envelope: %+v", ev)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		types = append(types, typ)
		if typ == "telemetry" {
			if ev.Telemetry == nil {
				t.Fatal("telemetry event with no delta")
			}
			telemetry++
			if telemetry == 3 && !released {
				close(release) // saw enough heartbeats; let the run finish
				released = true
			}
		}
		if typ == "done" {
			if ev.Status == nil || ev.Status.State != string(jobDone) {
				t.Fatalf("done event status: %+v", ev.Status)
			}
			break
		}
	}
	if types[0] != "state" {
		t.Errorf("first event %q, want state", types[0])
	}
	if telemetry < 3 {
		t.Errorf("saw %d telemetry events, want >= 3", telemetry)
	}
	var sawTable bool
	for _, typ := range types {
		if typ == "table" {
			sawTable = true
		}
	}
	if !sawTable {
		t.Errorf("no table event before done (events: %v)", types)
	}
	if types[len(types)-1] != "done" {
		t.Errorf("last event %q, want done", types[len(types)-1])
	}
}

// The determinism wall for the streaming plane: a fixed-seed quick run
// of a real registry experiment, streamed at two very different poll
// intervals, must (a) per run, accumulate deltas that sum exactly to
// the collector's final totals, and (b) across runs, agree on every
// deterministic total and on the result bytes.
func TestSSEStreamDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real experiment run")
	}
	// Warm the process-lifetime once-values (hplEff1, quickHPL) with no
	// collector attached: their one-off simulations would otherwise land
	// in whichever measured run touches them first.
	if _, err := harness.Tables([]string{"fig6"}, harness.Options{Quick: true, Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	type totals struct {
		counters   map[string]int64
		histCounts map[string]int64
		output     string
	}
	collect := func(interval string) totals {
		s := mustServer(t, serverConfig{jobs: 2, concurrency: 1, queue: 1, timeout: 2 * time.Minute, cacheBytes: 1 << 20})
		obs.SetActive(s.col)
		sim.SetDefaultObserver(obs.NewSimObserver(s.col))
		defer func() {
			obs.SetActive(nil)
			sim.SetDefaultObserver(nil)
		}()
		ts := httptest.NewServer(s.handler())
		defer ts.Close()

		// fig6 drives real sim engines (MPI cluster sweep), so the
		// sim.events.* counters and the pool/table instrumentation all
		// light up.
		st := postJob(t, ts.URL, "/run/fig6?quick=1&seed=3")
		resp, err := http.Get(ts.URL + st.EventsURL + "?interval=" + interval)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		acc := totals{counters: map[string]int64{}, histCounts: map[string]int64{}}
		var key string
		for {
			typ, ev, err := readSSE(br)
			if err != nil {
				t.Fatal(err)
			}
			if typ == "telemetry" {
				for name, inc := range ev.Telemetry.Counters {
					acc.counters[name] += inc
				}
				for name, hd := range ev.Telemetry.Histograms {
					acc.histCounts[name] += hd.Count
				}
			}
			if typ == "done" {
				if ev.Status.State != string(jobDone) {
					t.Fatalf("job ended %q (%s)", ev.Status.State, ev.Status.Error)
				}
				key = ev.Status.ResultKey
				break
			}
		}

		// (a) Exactness: the summed deltas are the final totals. Nothing
		// else touches the collector between the final delta (taken after
		// the job completed) and these reads.
		s.col.RangeCounters(func(name string, v int64) {
			if acc.counters[name] != v {
				t.Errorf("interval %s: counter %s accumulated %d, final total %d",
					interval, name, acc.counters[name], v)
			}
		})
		s.col.RangeHistograms(func(name string, h *obs.Histogram) {
			if acc.histCounts[name] != h.Count() {
				t.Errorf("interval %s: histogram %s accumulated count %d, final %d",
					interval, name, acc.histCounts[name], h.Count())
			}
		})

		r2, err := http.Get(ts.URL + "/result/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Body.Close()
		var res runResult
		if err := json.NewDecoder(r2.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		acc.output = res.Output
		return acc
	}

	fast := collect("2ms")
	slow := collect("40ms")

	// (b) Cross-interval agreement on everything scheduling-independent.
	if fast.output == "" || fast.output != slow.output {
		t.Errorf("result bytes differ across poll intervals (%d vs %d bytes)",
			len(fast.output), len(slow.output))
	}
	for _, name := range []string{
		"sim.events.scheduled", "sim.events.dispatched",
		"pool.tasks", "harness.table_rows", "serve.runs",
	} {
		if fast.counters[name] != slow.counters[name] {
			t.Errorf("counter %s: %d at 2ms vs %d at 40ms", name, fast.counters[name], slow.counters[name])
		}
		if fast.counters[name] == 0 {
			t.Errorf("counter %s never incremented — instrumentation missing", name)
		}
	}
	if fast.histCounts["pool.task_latency_ns"] != slow.histCounts["pool.task_latency_ns"] {
		t.Errorf("task latency count: %d vs %d",
			fast.histCounts["pool.task_latency_ns"], slow.histCounts["pool.task_latency_ns"])
	}
}

// /metrics must be strictly valid Prometheus text exposition: every
// sample under a declared TYPE, histogram buckets cumulative and
// monotone with ascending le, +Inf equal to _count, and at least one
// bucket-bearing family present.
func TestMetricsPrometheusFormat(t *testing.T) {
	s := mustServer(t, testConfig(echoRun))
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	runJob(t, ts.URL, "/run/table1?quick=1")
	runJob(t, ts.URL, "/run/fig6?quick=1")
	// Deterministic histogram content, including the overflow bucket.
	h := s.col.Histogram("serve.request_latency_ns")
	for _, v := range []int64{500, 900, 4000, 1 << 20, 1 << 62} {
		h.Observe(v)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want the 0.0.4 text exposition", ct)
	}
	raw, _ := io.ReadAll(resp.Body)

	e := parseExposition(t, raw)
	buckets, values := e.buckets, e.values

	if len(buckets) == 0 {
		t.Fatal("no _bucket-bearing family in the exposition")
	}
	if _, ok := buckets["mhpc_serve_request_latency_ns"]; !ok {
		t.Errorf("request latency histogram missing (families: %v)", e.types)
	}
	for fam, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				t.Errorf("%s: le not ascending at %v", fam, bs[i].le)
			}
			if bs[i].cum < bs[i-1].cum {
				t.Errorf("%s: cumulative count decreased at le=%v", fam, bs[i].le)
			}
		}
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			t.Errorf("%s: no +Inf bucket", fam)
		}
		count, ok := values[fam+"_count"]
		if !ok {
			t.Errorf("%s: no _count sample", fam)
		} else if last.cum != count {
			t.Errorf("%s: +Inf bucket %d != _count %d", fam, last.cum, count)
		}
		if _, ok := values[fam+"_sum"]; !ok {
			t.Errorf("%s: no _sum sample", fam)
		}
	}

	// The counter families carry the serve traffic.
	if v := values["mhpc_serve_runs_total"]; v != 2 {
		t.Errorf("mhpc_serve_runs_total = %d, want 2", v)
	}
}
