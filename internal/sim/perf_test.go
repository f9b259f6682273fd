package sim

import (
	"sync"
	"testing"

	"mobilehpc/internal/obs"
)

// BenchmarkEngineThroughput measures raw event throughput through the
// After fast path. Steady state must be allocation-free: the engine
// recycles each fired event through its free list, and the
// self-rescheduling pattern below reuses one event object forever.
// Before/after numbers for the specialized-heap engine are recorded in
// DESIGN.md (Engine performance).
func BenchmarkEngineThroughput(b *testing.B) {
	// step: one outstanding event, the dominant simulation pattern
	// (dispatch, schedule successor). Exercises the cached-minimum slot;
	// the heap is never touched.
	b.Run("step", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				e.After(1, tick)
			}
		}
		e.After(1, tick)
		b.ResetTimer()
		e.RunAll()
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
	})
	// fanout: 1024 outstanding events with mixed delays, so every
	// dispatch genuinely sifts the 4-ary heap.
	b.Run("fanout", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				e.After(1+float64(n%7), tick)
			}
		}
		for i := 0; i < 1024; i++ {
			e.After(1+float64(i%7), tick)
		}
		b.ResetTimer()
		e.RunAll()
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
	})
	// cancel: half the events are cancelled before they fire, exercising
	// the lazy-deletion drop path. Schedule (handle-returning, one
	// allocation per event) is the only API that can cancel.
	b.Run("cancel", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				ev := e.Schedule(2, func() {})
				ev.Cancel()
				e.After(1, tick)
			}
		}
		e.After(1, tick)
		b.ResetTimer()
		e.RunAll()
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
	})
	// observed: the step pattern on two engines, each on its own
	// goroutine, both feeding one obs.SimObserver — the shape of
	// concurrent mhpcd requests — so the telemetry hook's cost,
	// contention on its shared counters included, shows against step.
	b.Run("observed", func(b *testing.B) {
		b.ReportAllocs()
		o := obs.NewSimObserver(obs.New())
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e := NewEngine()
				e.SetObserver(o)
				n := 0
				var tick func()
				tick = func() {
					n++
					if n < b.N {
						e.After(1, tick)
					}
				}
				e.After(1, tick)
				e.RunAll()
			}()
		}
		wg.Wait()
		b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "events/s")
	})
}
