// Package obs is the run-telemetry layer of mobilehpc: hierarchical
// spans (run → experiment → sub-run/chunk), named counters and
// watermark gauges, and two out-of-band exporters — a Chrome
// chrome://tracing JSON trace and a JSON run manifest.
//
// The paper's own methodology leaned on exactly this kind of
// observability: §4 credits post-mortem trace analysis (Paraver,
// Scalasca) with finding the Tibidabo interconnect timeouts. This
// package gives the experiment harness the same treatment — after a
// `mhpc all -j 8 -trace-out run.json` the pool's slot occupancy, the
// per-experiment wall time, and the simulator's event throughput are
// all inspectable.
//
// # Contract
//
// Telemetry is strictly out-of-band: spans and counters are buffered
// in memory and exported to files or stderr, never to stdout, so the
// harness's byte-identity guarantee (parallel output == serial
// output) holds with telemetry on or off. The layer is also
// allocation-conscious when disabled: every entry point is nil-safe
// (a nil *Collector, *Span, *Counter, or *Gauge is a no-op), and the
// instrumented packages gate their telemetry on a single atomic load
// of the process-wide active collector (Active), so the telemetry-off
// overhead is one pointer load per instrumented region — not per
// event.
//
// Counters flow into both /metrics (mhpcd) and the -report run
// manifest. Families by prefix: sim.* (engine event accounting),
// pool.* and harness.* (worker-pool and table plumbing), faults.*
// (injected fault replay), serve.* and store.* (the serving tier),
// and ckpt.* — the resumable-run plane's split of restored versus
// executed work (ckpt.hits counts tasks served from a checkpoint
// ledger, ckpt.commits tasks executed and committed to one).
package obs

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one typed key/value attribute attached to a span. Build
// attrs with the typed constructors (Str, Int, Float, Bool) so the
// exporters can marshal values without reflection surprises.
type Attr struct {
	Key   string
	Value any
}

// Str returns a string-valued span attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an integer-valued span attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float returns a float-valued span attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool returns a boolean-valued span attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Span is one timed interval of the run: an experiment, a pool task,
// a Monte-Carlo chunk. Spans form a hierarchy via Parent (0 = the
// implicit root "run" span) and carry the goroutine that executed
// them plus, when the work ran on a worker pool, the slot index.
type Span struct {
	c      *Collector
	ID     int64
	Parent int64
	Name   string
	Cat    string // "experiment", "subrun", "chunk", ...
	Worker int    // pool slot that ran the span, -1 when not pooled
	GID    int64  // goroutine id the span started on
	Start  time.Duration
	Dur    time.Duration // set by End
	Attrs  []Attr
	ended  bool
}

// Counter is a monotonically increasing named total (events
// dispatched, Monte-Carlo trials, cache hits). Safe for concurrent
// Add from any goroutine; a nil Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current total (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a named level with a high-watermark: pool tasks queued,
// pool tasks active, sim event-heap depth. Safe for concurrent use; a
// nil Gauge is a no-op.
type Gauge struct{ cur, max atomic.Int64 }

// Add moves the gauge by delta (negative to decrease) and updates the
// high-watermark. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.watermark(g.cur.Add(delta))
}

// Watermark records v as an observed level without changing the
// current value — for gauges whose level is sampled rather than
// tracked (e.g. heap depth reported by the sim engine).
func (g *Gauge) Watermark(v int64) {
	if g == nil {
		return
	}
	g.watermark(v)
}

func (g *Gauge) watermark(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Max returns the high-watermark (0 on a nil receiver).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Current returns the present level (0 on a nil receiver).
func (g *Gauge) Current() int64 {
	if g == nil {
		return 0
	}
	return g.cur.Load()
}

// Collector buffers one run's telemetry: finished spans, counters,
// gauges, seed labels, and free-form metadata. All methods are safe
// for concurrent use and all are no-ops on a nil receiver, so
// instrumented code can hold a possibly-nil *Collector and call it
// unconditionally.
type Collector struct {
	start time.Time

	// set is the scrape-path view of the metric families: sorted names
	// with aligned handle slices, rebuilt (rarely) when a metric is
	// created and read lock-free by the Range iterators, so a 1s
	// /metrics scrape loop never contends with a hot run. See stream.go.
	set atomic.Pointer[metricSet]

	mu       sync.Mutex
	nextID   int64
	live     bool // NewLive: drop finished spans instead of buffering them
	spans    []*Span
	open     map[int64][]*Span // per-goroutine stack of open spans
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	seeds    map[string]uint64
	meta     map[string]string
	verbose  io.Writer
	doneExp  int // finished cat=="experiment" spans, for -v progress
}

// New returns an empty collector with its clock started now.
func New() *Collector {
	c := &Collector{
		start:    time.Now(),
		open:     map[int64][]*Span{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		seeds:    map[string]uint64{},
		meta:     map[string]string{},
	}
	c.set.Store(&metricSet{})
	return c
}

// NewLive returns a collector for a long-lived process that never
// exports a trace or manifest (the mhpcd daemon): spans still nest and
// stream as open spans, and counters, gauges and histograms work as
// under New, but a finished span is dropped instead of buffered, so
// memory stays flat however many requests the process serves.
func NewLive() *Collector {
	c := New()
	c.live = true
	return c
}

// Live reports whether c drops finished spans (NewLive). A span that
// is opened and ended at once is never seen on a live collector, so
// instrumented code checks this before paying for one. False on nil.
func (c *Collector) Live() bool { return c != nil && c.live }

// active is the process-wide collector consulted by the instrumented
// packages (harness pool, reliability Monte-Carlo). nil = telemetry
// off: the fast path everywhere.
var active atomic.Pointer[Collector]

// SetActive installs c as the process-wide collector (nil disables
// telemetry). The CLI sets it for the duration of one command; tests
// must restore the previous value.
func SetActive(c *Collector) { active.Store(c) }

// Active returns the process-wide collector, or nil when telemetry is
// off. One atomic load — cheap enough for per-region (not per-event)
// gating.
func Active() *Collector { return active.Load() }

// gid returns the current goroutine's id, parsed from the header line
// of its stack trace (same trick as internal/sim uses for engine
// ownership checks).
func gid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// SetMeta records a key/value pair for the run manifest (command,
// jobs, quick, ...).
func (c *Collector) SetMeta(k, v string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.meta[k] = v
	c.mu.Unlock()
}

// SetVerbose directs live per-experiment progress lines to w
// (normally stderr). Pass nil to silence.
func (c *Collector) SetVerbose(w io.Writer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.verbose = w
	c.mu.Unlock()
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op counter) on a nil collector.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.counters[name]
	if ctr == nil {
		ctr = &Counter{}
		c.counters[name] = ctr
		c.rebuildSetLocked()
	}
	return ctr
}

// Gauge returns the named gauge, creating it on first use. Returns
// nil (a no-op gauge) on a nil collector.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.gauges[name]
	if g == nil {
		g = &Gauge{}
		c.gauges[name] = g
		c.rebuildSetLocked()
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a no-op histogram) on a nil collector. All histograms
// share the fixed log2 bucket layout (see histogram.go).
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hists[name]
	if h == nil {
		h = &Histogram{}
		c.hists[name] = h
		c.rebuildSetLocked()
	}
	return h
}

// RecordSeed notes that a deterministic task seed was derived for the
// given label path ("stability/mc-survival/96"). The manifest lists
// every (label, seed) pair so a run's sampled experiments can be
// re-derived exactly.
func (c *Collector) RecordSeed(label string, seed uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.seeds[label] = seed
	c.mu.Unlock()
}

// StartSpan opens a span on the calling goroutine. Its parent is the
// innermost span currently open on this goroutine (the root when
// none). Close it with End — on the same goroutine.
func (c *Collector) StartSpan(name, cat string, attrs ...Attr) *Span {
	return c.startSpan(name, cat, -1, nil, true, attrs)
}

// StartWorkerSpan opens a span for pool work: worker is the slot
// index that runs it and parent (captured on the submitting
// goroutine, may be nil) overrides the goroutine-local parent lookup.
// Used by the harness pool, whose tasks run on goroutines the
// submitter does not share.
func (c *Collector) StartWorkerSpan(name, cat string, worker int, parent *Span, attrs ...Attr) *Span {
	return c.startSpan(name, cat, worker, parent, false, attrs)
}

func (c *Collector) startSpan(name, cat string, worker int, parent *Span, inherit bool, attrs []Attr) *Span {
	if c == nil {
		return nil
	}
	g := gid()
	now := time.Since(c.start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	s := &Span{
		c: c, ID: c.nextID, Name: name, Cat: cat,
		Worker: worker, GID: g, Start: now, Attrs: attrs,
	}
	if parent != nil {
		s.Parent = parent.ID
	} else if inherit {
		if stack := c.open[g]; len(stack) > 0 {
			s.Parent = stack[len(stack)-1].ID
		}
	}
	c.open[g] = append(c.open[g], s)
	return s
}

// CurrentSpan returns the innermost span open on the calling
// goroutine, or nil. Capture it before handing work to another
// goroutine, then pass it to StartWorkerSpan as the explicit parent.
func (c *Collector) CurrentSpan() *Span {
	if c == nil {
		return nil
	}
	g := gid()
	c.mu.Lock()
	defer c.mu.Unlock()
	if stack := c.open[g]; len(stack) > 0 {
		return stack[len(stack)-1]
	}
	return nil
}

// End closes the span, records it in the collector, and (for
// experiment spans with a verbose writer attached) emits a live
// progress line. No-op on a nil span or a double End.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	c := s.c
	now := time.Since(c.start)
	c.mu.Lock()
	s.ended = true
	s.Dur = now - s.Start
	// Pop from the goroutine stack it was pushed on (spans end on the
	// goroutine that started them; tolerate out-of-order ends).
	// An emptied stack is deleted, so the map holds only goroutines
	// with spans open.
	stack := c.open[s.GID]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == s {
			if len(stack) == 1 {
				delete(c.open, s.GID)
			} else {
				c.open[s.GID] = append(stack[:i], stack[i+1:]...)
			}
			break
		}
	}
	if !c.live {
		c.spans = append(c.spans, s)
	}
	var line string
	if s.Cat == "experiment" && c.verbose != nil {
		c.doneExp++
		if total := c.meta["experiments"]; total != "" {
			line = fmt.Sprintf("mhpc: [%d/%s] %s done in %.2fs (slot %d)\n",
				c.doneExp, total, s.Name, s.Dur.Seconds(), s.Worker)
		} else {
			line = fmt.Sprintf("mhpc: [%d] %s done in %.2fs (slot %d)\n",
				c.doneExp, s.Name, s.Dur.Seconds(), s.Worker)
		}
	}
	w := c.verbose
	c.mu.Unlock()
	if line != "" {
		io.WriteString(w, line)
	}
}

// Retained reports what the collector holds for spans: the finished
// spans buffered for the exporters, and the goroutines with spans
// still open. Both stay at zero between requests on a NewLive
// collector. It is a test hook, exported so that a package holding a
// long-lived collector (cmd/mhpcd) can assert from its own tests that
// the collector does not grow per request; no production code calls
// it. Nil-safe (returns zeros).
func (c *Collector) Retained() (finished, openGoroutines int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans), len(c.open)
}

// Counters returns a point-in-time copy of every counter's current
// value. Safe during an active run — the mhpcd /metrics endpoint
// serves this while experiments execute — and lock-free: values are
// read off the cached metric set, never under the collector mutex.
// Nil-safe (returns nil). Scrape loops that want to avoid the map
// allocation entirely should use RangeCounters.
func (c *Collector) Counters() map[string]int64 {
	if c == nil {
		return nil
	}
	set := c.set.Load()
	out := make(map[string]int64, len(set.counterNames))
	for i, name := range set.counterNames {
		out[name] = set.counters[i].Value()
	}
	return out
}

// Gauges returns a point-in-time copy of every gauge: the live value
// under the gauge's own name, the high-watermark under "<name>.max".
// Live values make the snapshot pollable (the mhpcd smoke gate waits
// on serve.inflight reaching 1); watermarks preserve the peak after
// the burst has passed. Lock-free, like Counters. Nil-safe (returns
// nil).
func (c *Collector) Gauges() map[string]int64 {
	if c == nil {
		return nil
	}
	set := c.set.Load()
	out := make(map[string]int64, 2*len(set.gaugeNames))
	for i, name := range set.gaugeNames {
		out[name] = set.gauges[i].Current()
		out[name+".max"] = set.gauges[i].Max()
	}
	return out
}

// collectorSnap is one consistent copy of the collector state for the
// exporters (Chrome trace, run manifest).
type collectorSnap struct {
	spans    []*Span
	counters map[string]int64
	gauges   map[string]int64 // watermarks
	hists    map[string]*Histogram
	seeds    map[string]uint64
	meta     map[string]string
	wall     time.Duration
}

// snapshot returns copies of the collector state for the exporters.
func (c *Collector) snapshot() collectorSnap {
	s := collectorSnap{wall: time.Since(c.start)}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.spans = append(s.spans, c.spans...)
	s.counters = make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		s.counters[k] = v.Value()
	}
	s.gauges = make(map[string]int64, len(c.gauges))
	for k, v := range c.gauges {
		s.gauges[k] = v.Max()
	}
	s.hists = make(map[string]*Histogram, len(c.hists))
	for k, v := range c.hists {
		s.hists[k] = v
	}
	s.seeds = make(map[string]uint64, len(c.seeds))
	for k, v := range c.seeds {
		s.seeds[k] = v
	}
	s.meta = make(map[string]string, len(c.meta))
	for k, v := range c.meta {
		s.meta[k] = v
	}
	return s
}
