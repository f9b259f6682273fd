package harness

import (
	"bytes"
	"runtime"
	"testing"

	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
)

// TestFaultSweepInvariance extends the jobs-invariance wall to the
// fault-injected experiment: the faultsweep table must be
// byte-identical at -j 1, -j 4, and auto (one worker per CPU), with
// telemetry off and on. Injected faults are part of the run's
// deterministic state, so none of those knobs may change a byte.
func TestFaultSweepInvariance(t *testing.T) {
	render := func(jobs int, telemetry bool) string {
		if telemetry {
			c := obs.New()
			obs.SetActive(c)
			sim.SetDefaultObserver(obs.NewSimObserver(c))
			defer func() {
				sim.SetDefaultObserver(nil)
				obs.SetActive(nil)
			}()
		}
		tabs, err := Tables([]string{"faultsweep"}, Options{Quick: true, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		for _, tab := range tabs {
			if err := tab.Render(&out); err != nil {
				t.Fatal(err)
			}
			if err := tab.CSV(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out.String()
	}

	ref := render(1, false)
	if ref == "" {
		t.Fatal("faultsweep rendered nothing")
	}
	for _, jobs := range []int{1, 4, runtime.NumCPU()} {
		for _, telemetry := range []bool{false, true} {
			if got := render(jobs, telemetry); got != ref {
				t.Errorf("faultsweep output at jobs=%d telemetry=%v differs from serial telemetry-off run",
					jobs, telemetry)
			}
		}
	}
}

// TestFaultSweepCountersFlow asserts the injected-fault telemetry the
// run manifest carries: a telemetry-on faultsweep run must count
// injected events, per-kind splits, checkpoints, and restarts.
func TestFaultSweepCountersFlow(t *testing.T) {
	c := obs.New()
	obs.SetActive(c)
	defer obs.SetActive(nil)
	if _, err := Tables([]string{"faultsweep"}, Options{Quick: true, Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, name := range []string{"faults.node_fail", "faults.node_hang", "faults.link_degrade"} {
		v := c.Counter(name).Value()
		if v <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, v)
		}
		total += v
	}
	if got := c.Counter("faults.injected").Value(); got != total {
		t.Errorf("faults.injected = %d, want sum of per-kind counters %d", got, total)
	}
	for _, name := range []string{"faults.checkpoints", "faults.restarts"} {
		if v := c.Counter(name).Value(); v <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, v)
		}
	}
	// The per-event fault spans must be in the trace with their kind
	// and target node encoded in the name.
	var traceBuf bytes.Buffer
	if err := c.WriteChromeTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(traceBuf.Bytes(), []byte(`"fault"`)) ||
		!bytes.Contains(traceBuf.Bytes(), []byte("fault/node_")) {
		t.Error("chrome trace carries no fault-category spans")
	}
}

// mhpcd's collector is live: it drops finished spans, so the per-fault
// spans are never opened there. The faultsweep counters still count,
// and the collector holds no span once the run is over.
func TestFaultSweepLiveCollector(t *testing.T) {
	c := obs.NewLive()
	obs.SetActive(c)
	defer obs.SetActive(nil)
	if _, err := Tables([]string{"faultsweep"}, Options{Quick: true, Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	if v := c.Counter("faults.injected").Value(); v <= 0 {
		t.Errorf("faults.injected = %d under a live collector, want > 0", v)
	}
	if finished, open := c.Retained(); finished != 0 || open != 0 {
		t.Errorf("live collector retains %d finished spans and %d goroutines with open spans", finished, open)
	}
}
