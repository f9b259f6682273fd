package obs

// Adapter between the sim engine's Observer hook and this package's
// counters. It implements sim.Observer structurally — obs does not
// import sim, sim does not import obs; the CLI (or a test) wires the
// two together with sim.SetDefaultObserver(obs.NewSimObserver(c)).
//
// The engine counts in plain fields and reports in batches (every 1024
// dispatches and at the end of each Run), so the adapter's shared
// atomics are touched a few times per thousand events, not per event.
// Its counters are still pre-resolved at construction: a flush does no
// map lookups.

// SimObserver counts discrete-event engine activity: events
// scheduled, dispatched, and cancelled (counters sim.events.*) and
// the event-heap depth high-watermark (gauge sim.heap.depth). One
// observer serves every engine in the process — the counters are
// atomic, and per-engine attribution is not needed for the manifest's
// totals.
type SimObserver struct {
	scheduled  *Counter
	dispatched *Counter
	canceled   *Counter
	depth      *Gauge
}

// NewSimObserver returns an observer feeding c. With a nil collector
// the observer still works but counts into no-op handles.
func NewSimObserver(c *Collector) *SimObserver {
	return &SimObserver{
		scheduled:  c.Counter("sim.events.scheduled"),
		dispatched: c.Counter("sim.events.dispatched"),
		canceled:   c.Counter("sim.events.canceled"),
		depth:      c.Gauge("sim.heap.depth"),
	}
}

// EventsObserved records one engine batch: events scheduled,
// dispatched, and dropped because they were cancelled before firing,
// and the largest queue depth observed right after a push.
func (o *SimObserver) EventsObserved(scheduled, dispatched, canceled int64, maxDepth int) {
	if scheduled != 0 {
		o.scheduled.Add(scheduled)
		o.depth.Watermark(int64(maxDepth))
	}
	if dispatched != 0 {
		o.dispatched.Add(dispatched)
	}
	if canceled != 0 {
		o.canceled.Add(canceled)
	}
}
