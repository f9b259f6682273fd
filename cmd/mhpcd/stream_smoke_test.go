package main

// End-to-end smoke test of the live observability plane on the real
// binary: build mhpcd, exec it, submit a full-fidelity job on the
// async path, watch its SSE stream deliver at least three telemetry
// deltas before completion, resolve the result key, cancel a
// full-fidelity straggler over HTTP, and scrape /metrics as Prometheus
// text. Gated behind MHPC_STREAM_SMOKE=1 — the Makefile stream-smoke
// target (wired into `make check`) sets the gate.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func TestStreamSmoke(t *testing.T) {
	if os.Getenv("MHPC_STREAM_SMOKE") != "1" {
		t.Skip("set MHPC_STREAM_SMOKE=1 to run the mhpcd streaming smoke test")
	}

	d := startMhpcd(t, buildMhpcd(t), "-j", "2", "-concurrency", "2", "-queue", "2",
		"-timeout", "5m", "-drain", "1s")
	base := d.base
	deadline := time.Now().Add(10 * time.Second)

	// A full-fidelity job on the async path: 202 with a job envelope.
	resp, err := http.Post(base+"/run/fig6?seed=7", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d (%s), want 202", resp.StatusCode, raw)
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad job envelope %q: %v", raw, err)
	}

	// The SSE stream must deliver >= 3 telemetry deltas before the done
	// event. A full fig6 runs about a second of real simulation, so a
	// 2ms cadence leaves a wide margin; a quick fig6 (~15ms on a 2-CPU
	// host) can end before the subscription sees three ticks.
	ev, err := http.Get(base + st.EventsURL + "?interval=2ms")
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	if ct := ev.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream content type %q", ct)
	}
	br := bufio.NewReader(ev.Body)
	telemetry, sawTable := 0, false
	var final jobStatus
	for {
		typ, e, err := readSSE(br)
		if err != nil {
			t.Fatalf("stream broke after %d telemetry events: %v", telemetry, err)
		}
		switch typ {
		case "telemetry":
			telemetry++
		case "table":
			sawTable = true
		case "done":
			if e.Status == nil {
				t.Fatal("done event with no status")
			}
			final = *e.Status
		}
		if typ == "done" {
			break
		}
	}
	if telemetry < 3 {
		t.Errorf("saw %d telemetry events, want >= 3", telemetry)
	}
	if !sawTable {
		t.Error("no table event before done")
	}
	if final.State != string(jobDone) || final.ResultKey == "" {
		t.Fatalf("final status: %+v", final)
	}

	// The result key resolves in the content-addressed store.
	rr, err := http.Get(base + "/result/" + final.ResultKey)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	var res runResult
	if rr.StatusCode != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Output == "" {
		t.Fatalf("result fetch: %d (%s)", rr.StatusCode, body)
	}

	// Cancel a full-fidelity straggler over live HTTP: DELETE returns
	// immediately and the job lands in the cancelled state.
	resp, err = http.Post(base+"/run/fig6?seed=99", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var slow jobStatus
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(raw, &slow) != nil {
		t.Fatalf("slow POST: %d (%s)", resp.StatusCode, raw)
	}
	req, _ := http.NewRequest("DELETE", base+"/job/"+slow.Job, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	for {
		r, err := http.Get(base + "/job/" + slow.Job)
		if err != nil {
			t.Fatal(err)
		}
		var cur jobStatus
		if err := json.NewDecoder(r.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if cur.State == string(jobCancelled) {
			break
		}
		if cur.State == string(jobDone) || cur.State == string(jobFailed) {
			t.Fatalf("cancelled job ended %q", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after DELETE", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// /metrics speaks Prometheus text exposition with histogram buckets.
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q, want the 0.0.4 text exposition", ct)
	}
	exp := string(mbody)
	for _, want := range []string{
		"# TYPE mhpc_serve_runs_total counter",
		"# TYPE mhpc_serve_request_latency_ns histogram",
		`mhpc_serve_request_latency_ns_bucket{le="+Inf"}`,
		"# TYPE mhpc_sim_events_dispatched_total counter",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Clean SIGTERM exit with the drain aborting nothing (all jobs
	// terminal by now).
	d.stop(t)
}
