package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func() { fired = true })
	end := e.Run(5)
	if end != 5 || fired {
		t.Errorf("Run(5) = %v fired=%v, want 5 false", end, fired)
	}
	e.RunAll()
	if !fired {
		t.Error("event did not fire after limit lifted")
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(2, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("no panic for past At")
		}
	}()
	e.At(1, func() {})
}

func TestProcWait(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(1.5)
			times = append(times, p.Now())
		}
	})
	e.RunAll()
	want := []float64{1.5, 3.0, 4.5}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcWaitUntil(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		p.WaitUntil(7)
		if p.Now() != 7 {
			t.Errorf("Now = %v, want 7", p.Now())
		}
		p.WaitUntil(3) // in the past: no-op
		if p.Now() != 7 {
			t.Errorf("Now moved backwards: %v", p.Now())
		}
	})
	e.RunAll()
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Go("a", func(p *Proc) {
		p.Wait(1)
		trace = append(trace, "a1")
		p.Wait(2)
		trace = append(trace, "a3")
	})
	e.Go("b", func(p *Proc) {
		p.Wait(2)
		trace = append(trace, "b2")
	})
	e.RunAll()
	want := []string{"a1", "b2", "a3"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestQueuePushPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p).(int))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(1)
			q.Push(i)
		}
	})
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("got = %v", got)
		}
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d", e.LiveProcs())
	}
}

func TestQueuePushBeforePop(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	q.Push("x")
	var got string
	e.Go("c", func(p *Proc) { got = q.Pop(p).(string) })
	e.RunAll()
	if got != "x" {
		t.Errorf("got %q", got)
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	if _, ok := q.TryPop(); ok {
		t.Error("TryPop on empty queue succeeded")
	}
	q.Push(1)
	q.Push(2)
	if v, ok := q.TryPop(); !ok || v.(int) != 1 {
		t.Errorf("TryPop = %v %v", v, ok)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d", q.Len())
	}
}

func TestQueueManyWaiters(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	var got []int
	for i := 0; i < 5; i++ {
		e.Go("c", func(p *Proc) { got = append(got, q.Pop(p).(int)) })
	}
	e.Go("prod", func(p *Proc) {
		p.Wait(1)
		for i := 0; i < 5; i++ {
			q.Push(i)
		}
	})
	e.RunAll()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	sort.Ints(got)
	for i := range got {
		if got[i] != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestResource(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("w", func(p *Proc) {
			r.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Wait(1)
			active--
			r.Release()
		})
	}
	end := e.RunAll()
	if maxActive != 2 {
		t.Errorf("maxActive = %d, want 2", maxActive)
	}
	// 6 jobs of 1s at concurrency 2 => 3s.
	if math.Abs(end-3) > 1e-12 {
		t.Errorf("end = %v, want 3", end)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	bodies := map[string]func(p *Proc){
		// Panics on its first resume, before it has ever parked.
		"first-resume": func(p *Proc) { panic("kaboom") },
		// Panics after a park and a later resume.
		"after-wait": func(p *Proc) {
			p.Wait(1)
			panic("kaboom")
		},
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			e.Go("boom", body)
			defer func() {
				// The coroutine must not re-raise the raw value: Run
				// reports the panic with the process name.
				msg, _ := recover().(string)
				if want := `sim: process "boom" panicked: kaboom`; msg != want {
					t.Errorf("panic %q, want %q", msg, want)
				}
			}()
			e.RunAll()
		})
	}
}

// Property: for any set of non-negative delays, events fire in sorted
// order and the final clock equals the max delay.
func TestScheduleSortedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []float64
		for _, r := range raw {
			d := float64(r) / 100
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		maxd := 0.0
		for _, r := range raw {
			if d := float64(r) / 100; d > maxd {
				maxd = d
			}
		}
		return math.Abs(e.Now()-maxd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a pipeline of queue hops preserves FIFO order end to end.
func TestQueuePipelineProperty(t *testing.T) {
	f := func(vals []int8) bool {
		e := NewEngine()
		q1, q2 := NewQueue(e), NewQueue(e)
		var out []int8
		e.Go("stage", func(p *Proc) {
			for range vals {
				v := q1.Pop(p).(int8)
				p.Wait(0.001)
				q2.Push(v)
			}
		})
		e.Go("sink", func(p *Proc) {
			for range vals {
				out = append(out, q2.Pop(p).(int8))
			}
		})
		for _, v := range vals {
			q1.Push(v)
		}
		e.RunAll()
		if len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkEventDispatch measures raw event throughput of the engine.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i), func() {})
	}
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkProcSwitch measures process suspend/resume round trips:
// one process alone, and the hpl-192 rank population of 192 processes
// that each Wait(1), so the engine resumes them in round-robin and
// every switch lands on a different coroutine. Before/after numbers
// are recorded in DESIGN.md (Engine performance).
func BenchmarkProcSwitch(b *testing.B) {
	for _, ranks := range []int{1, 192} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			e := NewEngine()
			switches := 0
			for r := 0; r < ranks; r++ {
				e.Go("rank", func(p *Proc) {
					for switches < b.N {
						switches++
						p.Wait(1)
					}
				})
			}
			b.ResetTimer()
			e.RunAll()
		})
	}
}
