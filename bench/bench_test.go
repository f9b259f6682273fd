package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tail metric reports the highest percentile that still has at
// least ten samples beyond it, capped at p99 and never below the
// median.
func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, rank int }{
		{1, 1}, {2, 2}, {10, 6}, {20, 11}, {21, 11}, {100, 90},
		{101, 91}, {666, 656}, {1000, 990}, {1200, 1188}, {13333, 13200},
	} {
		if got := tailRank(c.n); got != c.rank {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.rank)
		}
	}
	for n := 1; n <= 5000; n++ {
		r := tailRank(n)
		if r < n/2+1 || r > n || float64(r) > math.Ceil(0.99*float64(n)) {
			t.Fatalf("tailRank(%d) = %d outside [median, p99]", n, r)
		}
		if r > n/2+1 && n-r < 10 {
			t.Fatalf("tailRank(%d) = %d leaves %d samples beyond it", n, r, n-r)
		}
	}
	var s sample
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if v, pct := s.tail(); v != 990 || pct != 99 {
		t.Errorf("tail of 1..1000 = %v (p%v), want 990 (p99)", v, pct)
	}
}

// A stall that hits one cycle sets the pooled p99 but not the median of
// the per-cycle p99s; cycles too small for a p99 of their own do not
// qualify.
func TestCycleTail(t *testing.T) {
	var cycles []sample
	var pooled sample
	for k := 0; k < 6; k++ {
		c := make(sample, minP99Samples)
		for i := range c {
			c[i] = 1
			if k == 2 && i < 80 {
				c[i] = 100
			}
		}
		cycles = append(cycles, c)
		pooled = append(pooled, c...)
	}
	if v, _ := pooled.tail(); v != 100 {
		t.Fatalf("pooled p99 = %v, want the stall's 100", v)
	}
	if v, ok := cycleTail(cycles); !ok || v != 1 {
		t.Errorf("cycleTail = %v, %v; want 1, true", v, ok)
	}
	cycles[0] = cycles[0][1:]
	if _, ok := cycleTail(cycles); ok {
		t.Error("cycleTail applied to a cycle below minP99Samples")
	}
	if _, ok := cycleTail(nil); ok {
		t.Error("cycleTail applied to no cycles")
	}
}

// pyQuartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the benchmark's acceptance check uses.
func TestPyQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := pyQuartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("pyQuartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestRegressed(t *testing.T) {
	for _, c := range []struct {
		base, next, bound, floor float64
		higher, want             bool
	}{
		{100, 119, 0.2, 0, false, false},
		{100, 121, 0.2, 0, false, true},
		{100, 50, 0.2, 0, false, false}, // faster is never a regression
		{100, 81, 0.2, 0, true, false},
		{100, 79, 0.2, 0, true, true},
		{100, 130, 0.2, 0, true, false},
		// Doubling a 3 ms set-up stays under a 5 ms floor...
		{0.003, 0.006, 0.25, 0.005, false, false},
		// ...a 6 ms slip does not.
		{0.003, 0.009, 0.25, 0.005, false, true},
		// The floor never excuses a change past both limits.
		{1, 1.3, 0.25, 0.005, false, true},
	} {
		if got := regressed(c.base, c.next, c.bound, c.floor, c.higher); got != c.want {
			t.Errorf("regressed(%v -> %v, bound %v, floor %v, higher %v) = %v, want %v",
				c.base, c.next, c.bound, c.floor, c.higher, got, c.want)
		}
	}
}

// The CPU attribution charges each sample to its innermost
// mobilehpc/internal frame, and runtime-only stacks to the scheduler
// or the garbage collector.
func TestAttributeTraces(t *testing.T) {
	const text = `File: bench
Type: cpu
Duration: 1.10s, Total samples = 100ms (9.09%)
-----------+-------------------------------------------------------
      40ms   mobilehpc/internal/sim.less (inline)
             mobilehpc/internal/sim.(*Engine).heapPush (inline)
             mobilehpc/internal/mpi.(*Rank).initChains.NewDelivery.func8
             mobilehpc/internal/apps/hpl.Run
             main.childMain
-----------+-------------------------------------------------------
      20ms   runtime.chansend1
             mobilehpc/internal/interconnect.(*Delivery).acquire
             mobilehpc/internal/sim.(*Engine).runAs
-----------+-------------------------------------------------------
      10ms   mobilehpc/internal/apps/hpl.Run.func1
             mobilehpc/internal/mpi.runCommon.func1
-----------+-------------------------------------------------------
      10ms   runtime.gogo
             runtime.execute
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
       5ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
       5ms   mobilehpc/internal/harness.parmapErr[go.shape.*mobilehpc/internal/sim.Engine].func1
             mobilehpc/internal/harness.parmapErr
-----------+-------------------------------------------------------
       5ms   mobilehpc/internal/reliability.(*MC).chunk
-----------+-------------------------------------------------------
       5ms   syscall.Syscall
             os.(*File).Write
             main.childMain
-----------+-------------------------------------------------------
`
	got, err := attributeTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim.cpu_frac": 0.4, "interconnect.cpu_frac": 0.2, "apps.cpu_frac": 0.1,
		"runtime.sched_cpu_frac": 0.1, "runtime.gc_cpu_frac": 0.05,
		"faults.cpu_frac": 0.05, "other.cpu_frac": 0.1,
		"mpi.cpu_frac": 0, "linalg.cpu_frac": 0,
	}
	var sum float64
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if _, err := attributeTraces("File: x\n"); err == nil {
		t.Error("a profile with no samples must be an error")
	}
}

// fakeMhpcd serves the two calls the client makes, answering every
// stream with the expected table; the first stream stalls for stall.
func fakeMhpcd(t *testing.T, table string, stall time.Duration) *httptest.Server {
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"events_url": "/job/%s/events"}`, r.PathValue("id"))
	})
	mux.HandleFunc("GET /job/{job}/events", func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
		fmt.Fprintf(w, "event: table\ndata: {\"type\":\"table\",\"table\":%q}\n\n", table)
		fmt.Fprint(w, "event: done\ndata: {\"type\":\"done\",\"status\":{\"state\":\"done\"}}\n\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// Open-loop latency runs from the due time: one stalled request must
// show up in the latency of the requests queued behind it, not only in
// its own.
func TestOpenLoopDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	want := map[string]string{"table1": "## table1\n"}
	ts := fakeMhpcd(t, want["table1"], stall)
	c := &client{base: ts.URL, hc: ts.Client(), want: want}
	p := newPlan(1, false, []string{"table1"})
	// 100 req/s for 1 s from one sender: requests 1..29 fall due
	// during the stall and must each wait out the rest of it.
	recs := openLoop(context.Background(), c, p, nil, 100, 0, time.Second, 1)
	if len(recs) != 100 {
		t.Fatalf("%d records, want 100", len(recs))
	}
	for i, r := range recs {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
	lat := func(i int) time.Duration { return recs[i].done.Sub(recs[i].due) }
	if lat(0) < stall {
		t.Errorf("stalled request latency %v, want >= %v", lat(0), stall)
	}
	for _, i := range []int{1, 10, 20} {
		wait := stall - time.Duration(i)*10*time.Millisecond
		if lat(i) < wait-20*time.Millisecond || recs[i].sent.Sub(recs[i].due) < wait-20*time.Millisecond {
			t.Errorf("request %d queued behind the stall: latency %v, late %v, want about %v",
				i, lat(i), recs[i].sent.Sub(recs[i].due), wait)
		}
	}
	// A table that differs from the in-process render fails the request.
	c.want = map[string]string{"table1": "something else"}
	if r := c.do(context.Background(), 0, "table1", 1, nil); r.err == nil ||
		!strings.Contains(r.err.Error(), "differs") {
		t.Errorf("mismatched table: err = %v, want a difference", r.err)
	}
}

// The serve-cold plan gives every request a new key and balances ids:
// each round of len(ids) requests draws every id once.
func TestPlanCold(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e"}
	p := newPlan(7, false, ids)
	salts := map[uint64]bool{}
	for round := 0; round < 4; round++ {
		seen := map[string]bool{}
		for k := 0; k < len(ids); k++ {
			id, salt := p.at(round*len(ids) + k)
			seen[id] = true
			if salts[salt] {
				t.Fatalf("salt %d reused", salt)
			}
			salts[salt] = true
		}
		if len(seen) != len(ids) {
			t.Errorf("round %d drew %d distinct ids, want %d", round, len(seen), len(ids))
		}
	}
	// The warm-up requests every id once, under salts the load never uses.
	if len(p.keys) != len(ids) {
		t.Errorf("%d warm-up keys, want %d", len(p.keys), len(ids))
	}
	for _, k := range p.keys {
		if salts[k.salt] {
			t.Errorf("warm-up salt %d is drawn by the load", k.salt)
		}
	}
	q := newPlan(7, false, ids)
	for i := 0; i < 50; i++ {
		a, _ := p.at(i)
		b, _ := q.at(i)
		if a != b {
			t.Fatalf("request %d: same seed drew %s and %s", i, a, b)
		}
	}
}
