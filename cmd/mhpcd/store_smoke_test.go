package main

// Restart-survival smoke: the durable-store contract proven against
// the real binary. Populate a disk-backed mhpcd, SIGTERM it, restart
// on the same -store-dir, and require every previously computed key
// to come back as a cache hit — zero re-executions, gauges reflecting
// the reload. Gated behind MHPC_STORE_SMOKE=1; the Makefile
// store-smoke target (wired into `make check`) sets the gate.

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreSmoke(t *testing.T) {
	if os.Getenv("MHPC_STORE_SMOKE") != "1" {
		t.Skip("set MHPC_STORE_SMOKE=1 to run the mhpcd restart-survival smoke test")
	}
	bin := buildMhpcd(t)
	storeDir := filepath.Join(t.TempDir(), "results")
	start := func() *daemon {
		return startMhpcd(t, bin, "-j", "2", "-concurrency", "2", "-queue", "4",
			"-store-dir", storeDir, "-timeout", "5m", "-drain", "2s")
	}

	// Phase 1: populate three distinct keys (seed is the replica salt).
	const n = 3
	d := start()
	keys := make([]string, 0, n)
	outputs := map[string]string{}
	for seed := 1; seed <= n; seed++ {
		st := runJob(t, d.base, fmt.Sprintf("/run/table1?quick=1&seed=%d", seed))
		if st.State != string(jobDone) || st.Cached {
			t.Fatalf("seed %d: state %q cached %v (%s), want a fresh done run", seed, st.State, st.Cached, st.Error)
		}
		keys = append(keys, st.ResultKey)
		outputs[st.ResultKey] = fetchResult(t, d.base, st.ResultKey).Output
	}
	if m := metric(t, d.base, "mhpc_serve_runs_total"); m != n {
		t.Errorf("first life: serve.runs = %d, want %d", m, n)
	}
	if m := metric(t, d.base, "mhpc_store_entries"); m != n {
		t.Errorf("first life: store.entries = %d, want %d", m, n)
	}
	d.stop(t)

	// Phase 2: a fresh process on the same directory serves every key
	// from the recovered store without re-executing anything.
	d2 := start()
	base2 := d2.base
	if m := metric(t, base2, "mhpc_store_recovered_total"); m != n {
		t.Errorf("restart: store.recovered = %d, want %d", m, n)
	}
	if m := metric(t, base2, "mhpc_store_entries"); m != n {
		t.Errorf("restart: store.entries = %d, want %d", m, n)
	}
	if m := metric(t, base2, "mhpc_store_bytes"); m <= 0 {
		t.Errorf("restart: store.bytes = %d, want > 0", m)
	}
	for seed := 1; seed <= n; seed++ {
		st := runJob(t, base2, fmt.Sprintf("/run/table1?quick=1&seed=%d", seed))
		if st.State != string(jobDone) || !st.Cached {
			t.Errorf("seed %d: restarted server re-executed (state %q cached %v) instead of hitting the store", seed, st.State, st.Cached)
		}
		if want, ok := outputs[st.ResultKey]; !ok || fetchResult(t, base2, st.ResultKey).Output != want {
			t.Errorf("seed %d: recovered output diverged from the original run", seed)
		}
	}
	// /result serves the recovered keys directly too.
	for _, key := range keys {
		resp, err := http.Get(base2 + "/result/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/result/%s after restart: %d, want 200", key, resp.StatusCode)
		}
	}
	// The zero-re-execution proof: serve.runs counts harness
	// executions in *this* process, and nothing above incremented it.
	if m := metric(t, base2, "mhpc_serve_runs_total"); m != 0 {
		t.Errorf("restart: serve.runs = %d, want 0 (no re-executions)", m)
	}
	if m := metric(t, base2, "mhpc_store_hits_total"); m < n {
		t.Errorf("restart: store.hits = %d, want >= %d", m, n)
	}
	d2.stop(t)
}
