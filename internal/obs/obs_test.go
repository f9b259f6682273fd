package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// The whole API must be a no-op on nil receivers — that is the
// telemetry-off fast path every instrumented package relies on.
func TestNilSafety(t *testing.T) {
	var c *Collector
	sp := c.StartSpan("x", "cat")
	sp.End()
	c.StartWorkerSpan("x", "cat", 3, nil).End()
	if got := c.CurrentSpan(); got != nil {
		t.Errorf("nil collector CurrentSpan = %v", got)
	}
	c.Counter("n").Add(5)
	if v := c.Counter("n").Value(); v != 0 {
		t.Errorf("nil counter value %d", v)
	}
	c.Gauge("g").Add(2)
	c.Gauge("g").Watermark(9)
	if v := c.Gauge("g").Max(); v != 0 {
		t.Errorf("nil gauge max %d", v)
	}
	c.RecordSeed("a/b", 7)
	c.SetMeta("k", "v")
	c.SetVerbose(nil)
}

func TestCountersAndGauges(t *testing.T) {
	c := New()
	n := c.Counter("events")
	if n2 := c.Counter("events"); n2 != n {
		t.Error("Counter does not return a stable handle per name")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	if v := n.Value(); v != 8000 {
		t.Errorf("counter = %d, want 8000", v)
	}
	g := c.Gauge("depth")
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if g.Current() != 2 || g.Max() != 7 {
		t.Errorf("gauge current=%d max=%d, want 2, 7", g.Current(), g.Max())
	}
	g.Watermark(100)
	if g.Max() != 100 || g.Current() != 2 {
		t.Errorf("watermark: current=%d max=%d, want 2, 100", g.Current(), g.Max())
	}
}

// Spans opened on one goroutine nest via the goroutine-local stack;
// pool spans attach to an explicit parent captured by the submitter.
func TestSpanHierarchy(t *testing.T) {
	c := New()
	outer := c.StartSpan("experiment-1", "experiment")
	if cur := c.CurrentSpan(); cur != outer {
		t.Fatal("CurrentSpan is not the just-opened span")
	}
	inner := c.StartSpan("sub", "subrun")
	if inner.Parent != outer.ID {
		t.Errorf("inner parent = %d, want %d", inner.Parent, outer.ID)
	}

	// Simulate pool submission: capture parent here, start on another
	// goroutine.
	parent := c.CurrentSpan()
	done := make(chan *Span)
	go func() {
		sp := c.StartWorkerSpan("task", "chunk", 2, parent)
		sp.End()
		done <- sp
	}()
	task := <-done
	if task.Parent != inner.ID {
		t.Errorf("worker span parent = %d, want %d", task.Parent, inner.ID)
	}
	if task.Worker != 2 {
		t.Errorf("worker span slot = %d, want 2", task.Worker)
	}
	inner.End()
	if cur := c.CurrentSpan(); cur != outer {
		t.Errorf("after inner.End, CurrentSpan = %v, want outer", cur)
	}
	outer.End()
	outer.End() // double End is a no-op
	if cur := c.CurrentSpan(); cur != nil {
		t.Errorf("after outer.End, CurrentSpan = %v, want nil", cur)
	}
	spans := c.snapshot().spans
	if len(spans) != 3 {
		t.Errorf("recorded %d spans, want 3", len(spans))
	}
	if finished, open := c.Retained(); finished != 3 || open != 0 {
		t.Errorf("Retained = %d finished, %d open goroutines, want 3, 0", finished, open)
	}
}

// A live collector streams open spans and keeps nesting them, but
// drops each one when it ends: nothing accumulates across requests.
func TestLiveCollectorDropsFinishedSpans(t *testing.T) {
	c := NewLive()
	outer := c.StartSpan("job", "experiment")
	inner := c.StartSpan("sub", "subrun")
	if inner.Parent != outer.ID {
		t.Errorf("inner parent = %d, want %d", inner.Parent, outer.ID)
	}
	if open := c.openSpans(0); len(open) != 2 {
		t.Errorf("%d open spans streamed, want 2", len(open))
	}
	inner.End()
	outer.End()
	c.Counter("serve.runs").Add(1)
	if finished, open := c.Retained(); finished != 0 || open != 0 {
		t.Errorf("Retained = %d finished, %d open goroutines, want none", finished, open)
	}
	if c.Counters()["serve.runs"] != 1 {
		t.Error("live collector dropped a counter")
	}
}

func TestVerboseProgress(t *testing.T) {
	c := New()
	c.SetMeta("experiments", "2")
	var buf bytes.Buffer
	c.SetVerbose(&buf)
	c.StartWorkerSpan("fig6", "experiment", 1, nil).End()
	c.StartSpan("sub", "subrun").End() // non-experiment: silent
	c.StartWorkerSpan("fig7", "experiment", 0, nil).End()
	out := buf.String()
	if !strings.Contains(out, "[1/2] fig6") || !strings.Contains(out, "[2/2] fig7") {
		t.Errorf("verbose output missing progress lines:\n%s", out)
	}
	if strings.Contains(out, "sub") {
		t.Errorf("verbose output leaked a non-experiment span:\n%s", out)
	}
}

func TestChromeTraceFormat(t *testing.T) {
	c := New()
	c.SetMeta("command", "all")
	sp := c.StartWorkerSpan("fig6", "experiment", 0, nil, Str("k", "v"), Int("n", 4))
	c.StartWorkerSpan("fig6/n=4", "subrun", 1, sp).End()
	sp.End()

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		if ph != "X" {
			t.Errorf("unexpected event phase %q", ph)
		}
		complete++
		for _, field := range []string{"name", "pid", "tid", "ts", "dur"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("complete event %v missing %q", ev["name"], field)
			}
		}
		if ts := ev["ts"].(float64); ts < 0 {
			t.Errorf("negative ts %v", ts)
		}
		if dur := ev["dur"].(float64); dur < 0 {
			t.Errorf("negative dur %v", dur)
		}
	}
	// The run event plus the two spans.
	if complete != 3 {
		t.Errorf("%d complete events, want 3", complete)
	}
}

func TestManifest(t *testing.T) {
	c := New()
	c.SetMeta("command", "all")
	c.Counter("sim.events.dispatched").Add(42)
	c.Gauge("sim.heap.depth").Watermark(17)
	c.RecordSeed("stability/mc-survival/96", 123)
	c.RecordSeed("a", 1)
	e1 := c.StartWorkerSpan("fig7", "experiment", 0, nil)
	c.StartWorkerSpan("fig7/sub", "subrun", 0, e1).End()
	e1.End()
	c.StartWorkerSpan("fig6", "experiment", 1, nil).End()

	m := c.BuildManifest()
	if m.Schema != ManifestSchema {
		t.Errorf("schema = %q", m.Schema)
	}
	if len(m.Experiments) != 2 || m.Experiments[0].ID != "fig6" || m.Experiments[1].ID != "fig7" {
		t.Errorf("experiments not sorted by id: %+v", m.Experiments)
	}
	if m.Experiments[1].Subruns != 1 {
		t.Errorf("fig7 subruns = %d, want 1", m.Experiments[1].Subruns)
	}
	if m.Counters["sim.events.dispatched"] != 42 {
		t.Errorf("counter total lost: %v", m.Counters)
	}
	if m.Gauges["sim.heap.depth"] != 17 {
		t.Errorf("gauge watermark lost: %v", m.Gauges)
	}
	if len(m.Seeds) != 2 || m.Seeds[0].Label != "a" {
		t.Errorf("seeds not sorted: %+v", m.Seeds)
	}
	var buf bytes.Buffer
	if err := c.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("manifest is not valid JSON")
	}
}

func TestSimObserverCounts(t *testing.T) {
	c := New()
	o := NewSimObserver(c)
	// Two engine batches: three scheduled events at depths 3, 9 and
	// 1, two dispatched, one cancelled.
	o.EventsObserved(2, 1, 0, 9)
	o.EventsObserved(1, 1, 1, 1)
	if v := c.Counter("sim.events.scheduled").Value(); v != 3 {
		t.Errorf("scheduled = %d", v)
	}
	if v := c.Counter("sim.events.dispatched").Value(); v != 2 {
		t.Errorf("dispatched = %d", v)
	}
	if v := c.Counter("sim.events.canceled").Value(); v != 1 {
		t.Errorf("canceled = %d", v)
	}
	if v := c.Gauge("sim.heap.depth").Max(); v != 9 {
		t.Errorf("heap depth watermark = %d, want 9", v)
	}
	// A sim observer over a nil collector counts into no-op handles.
	NewSimObserver(nil).EventsObserved(1, 1, 1, 5)
}

func TestActiveGlobal(t *testing.T) {
	if Active() != nil {
		t.Fatal("collector unexpectedly active at test start")
	}
	c := New()
	SetActive(c)
	if Active() != c {
		t.Error("Active did not return the installed collector")
	}
	SetActive(nil)
	if Active() != nil {
		t.Error("SetActive(nil) did not disable telemetry")
	}
}

// Counters and Gauges must expose live snapshots (the mhpcd /metrics
// source) and be nil-safe.
func TestCounterGaugeSnapshots(t *testing.T) {
	var nilC *Collector
	if nilC.Counters() != nil || nilC.Gauges() != nil {
		t.Fatal("nil collector snapshots not nil")
	}
	c := New()
	c.Counter("serve.runs").Add(3)
	c.Counter("serve.runs").Add(2)
	g := c.Gauge("serve.inflight")
	g.Add(4)
	g.Add(-3)
	cs, gs := c.Counters(), c.Gauges()
	if cs["serve.runs"] != 5 {
		t.Fatalf("counter snapshot %v", cs)
	}
	if gs["serve.inflight"] != 1 {
		t.Fatalf("gauge live snapshot %v, want current value 1", gs)
	}
	if gs["serve.inflight.max"] != 4 {
		t.Fatalf("gauge watermark snapshot %v, want peak 4", gs)
	}
	// Snapshots are copies: mutating the source later must not change
	// an already-taken snapshot.
	c.Counter("serve.runs").Add(10)
	if cs["serve.runs"] != 5 {
		t.Fatal("snapshot aliases the live counter map")
	}
}
