package sim

import "testing"

// countObserver totals the engine's batched reports for the tests.
type countObserver struct {
	scheduled, dispatched, canceled int
	maxDepth                        int
	flushes                         int
}

func (o *countObserver) EventsObserved(scheduled, dispatched, canceled int64, maxDepth int) {
	o.flushes++
	o.scheduled += int(scheduled)
	o.dispatched += int(dispatched)
	o.canceled += int(canceled)
	if maxDepth > o.maxDepth {
		o.maxDepth = maxDepth
	}
}

// The observer hook must see every scheduled, dispatched, and
// cancelled-and-dropped event, and the queue-depth samples must cover
// the high-watermark.
func TestObserverCounts(t *testing.T) {
	e := NewEngine()
	obs := &countObserver{}
	e.SetObserver(obs)

	var fired int
	e.Schedule(1, func() { fired++ })
	e.Schedule(2, func() { fired++ })
	ev := e.Schedule(3, func() { fired++ })
	ev.Cancel()
	e.Schedule(4, func() {
		fired++
		e.Schedule(1, func() { fired++ }) // scheduled during Run
	})
	e.RunAll()

	if fired != 4 {
		t.Fatalf("fired %d events, want 4", fired)
	}
	if obs.scheduled != 5 {
		t.Errorf("scheduled = %d, want 5", obs.scheduled)
	}
	if obs.dispatched != 4 {
		t.Errorf("dispatched = %d, want 4", obs.dispatched)
	}
	if obs.canceled != 1 {
		t.Errorf("canceled = %d, want 1", obs.canceled)
	}
	if obs.maxDepth != 4 {
		t.Errorf("max queue depth = %d, want 4", obs.maxDepth)
	}
}

// Observation must not perturb the simulation: same schedule, same
// final clock and order with and without an observer.
func TestObserverDoesNotChangeResults(t *testing.T) {
	run := func(o Observer) (float64, []int) {
		e := NewEngine()
		e.SetObserver(o)
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			e.Schedule(float64(5-i), func() { order = append(order, i) })
		}
		return e.RunAll(), order
	}
	endA, orderA := run(nil)
	endB, orderB := run(&countObserver{})
	if endA != endB {
		t.Errorf("final time differs: %v vs %v", endA, endB)
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("dispatch order differs at %d: %v vs %v", i, orderA, orderB)
		}
	}
}

// NewEngine picks up the package default observer; clearing it
// restores the no-op.
func TestDefaultObserver(t *testing.T) {
	obs := &countObserver{}
	SetDefaultObserver(obs)
	defer SetDefaultObserver(nil)

	e := NewEngine()
	e.Schedule(1, func() {})
	e.RunAll()
	if obs.scheduled != 1 || obs.dispatched != 1 {
		t.Errorf("default observer not attached: %+v", obs)
	}

	SetDefaultObserver(nil)
	e2 := NewEngine()
	e2.Schedule(1, func() {})
	e2.RunAll()
	if obs.scheduled != 1 {
		t.Errorf("cleared default observer still attached: %+v", obs)
	}
}

// Counts are reported in batches, and the batches add up exactly: a
// run over three flush periods long, with cancels (some dropped by
// compaction, some lazily), reports every scheduled, dispatched and
// cancelled event and the exact queue-depth watermark; the observer
// hears from the engine during the run, not only at its end.
func TestObserverBatchedCountsExact(t *testing.T) {
	e := NewEngine()
	o := &countObserver{}
	e.SetObserver(o)

	var scheduled, dispatched, canceled, maxDepth, flushesInRun int
	pushed := func() {
		scheduled++
		if p := e.Pending(); p > maxDepth {
			maxDepth = p
		}
	}
	const ticks = 3*observeBatch + 500
	chain := 0
	var tick func()
	tick = func() {
		dispatched++
		chain++
		flushesInRun = o.flushes
		if chain%3 == 0 {
			ev := e.Schedule(1e6, func() { t.Error("cancelled event fired") })
			pushed()
			ev.Cancel()
			canceled++
		}
		if chain < ticks {
			e.After(1, tick)
			pushed()
		}
	}
	// A burst of side events at the start sets the depth watermark.
	for i := 0; i < 12; i++ {
		e.Schedule(float64(i)/16, func() { dispatched++ })
		pushed()
	}
	e.After(1, tick)
	pushed()
	e.RunAll()

	if chain != ticks {
		t.Fatalf("chain ran %d ticks, want %d", chain, ticks)
	}
	if o.scheduled != scheduled || o.dispatched != dispatched || o.canceled != canceled {
		t.Errorf("observer saw scheduled/dispatched/canceled = %d/%d/%d, want %d/%d/%d",
			o.scheduled, o.dispatched, o.canceled, scheduled, dispatched, canceled)
	}
	if o.maxDepth != maxDepth || maxDepth < 13 {
		t.Errorf("depth watermark = %d, want %d (>= 13)", o.maxDepth, maxDepth)
	}
	if flushesInRun < 3 {
		t.Errorf("observer heard %d flushes during a run of %d dispatches, want >= 3",
			flushesInRun, dispatched)
	}
}

// An aborted Run still reports what it did before the abort.
func TestObserverFlushesOnAbort(t *testing.T) {
	e := NewEngine()
	o := &countObserver{}
	e.SetObserver(o)
	flag := NewAbortFlag()
	e.SetAbortFlag(flag)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n == 100 {
			flag.Abort(nil)
		}
		e.After(1, tick)
	}
	e.After(1, tick)
	if ab := recoverAbort(t, func() { e.RunAll() }); ab == nil {
		t.Fatal("aborted Run returned normally")
	}
	if o.dispatched != 100 || o.scheduled != 101 || o.flushes != 1 {
		t.Errorf("aborted run reported dispatched=%d scheduled=%d in %d flushes, want 100, 101, 1",
			o.dispatched, o.scheduled, o.flushes)
	}
}
