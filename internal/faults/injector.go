package faults

import (
	"fmt"

	"mobilehpc/internal/cluster"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
)

// Injector binds a fault schedule to a cluster: Arm schedules every
// event onto the cluster's engine, and when an event fires the
// injector applies the corresponding cluster/interconnect hook
// (FailNode, HangNode, Net.DegradeNode), records telemetry, and
// invokes the optional callback — in that order, so the callback sees
// the cluster already in its post-fault state.
type Injector struct {
	cl      *cluster.Cluster
	sch     Schedule
	onFault func(Event)
	armed   []*sim.Event
	fired   []Event

	// Telemetry, resolved once per injector: the collector active at
	// construction and its fault counters, each created on the first
	// fault that counts into it (so a kind that never fires adds no
	// zero counter to the manifest).
	col      *obs.Collector
	injected *obs.Counter
	perKind  [numKinds]*obs.Counter
}

// NewInjector creates an injector for schedule sch on cluster cl.
// onFault (may be nil) runs inside the engine's thread of control
// after each fault is applied.
func NewInjector(cl *cluster.Cluster, sch Schedule, onFault func(Event)) *Injector {
	for i, ev := range sch {
		if ev.Node >= cl.Size() {
			panic(fmt.Sprintf("faults: event %d targets node %d of a %d-node cluster", i, ev.Node, cl.Size()))
		}
		if ev.Kind >= numKinds {
			panic(fmt.Sprintf("faults: event %d has unknown kind %d", i, ev.Kind))
		}
	}
	return &Injector{cl: cl, sch: sch, onFault: onFault, col: obs.Active()}
}

// Arm schedules every event of the schedule onto the cluster engine
// (Hours -> engine seconds). Call before the engine runs, or from
// within its thread of control.
func (in *Injector) Arm() {
	for _, ev := range in.sch {
		ev := ev
		in.armed = append(in.armed, in.cl.Eng.Schedule(ev.Hours*3600, func() { in.fire(ev) }))
	}
}

// Disarm cancels every not-yet-fired event. Call from the engine's
// thread of control (or after the run) — e.g. when the replayed
// application finishes before the schedule horizon.
func (in *Injector) Disarm() {
	for _, e := range in.armed {
		e.Cancel()
	}
	in.armed = in.armed[:0]
}

// Injected returns the events that have fired so far, in firing order.
func (in *Injector) Injected() []Event { return in.fired }

func (in *Injector) fire(ev Event) {
	switch ev.Kind {
	case NodeFail:
		in.cl.FailNode(ev.Node)
	case NodeHang:
		in.cl.HangNode(ev.Node)
	case LinkDegrade:
		in.cl.Net.DegradeNode(ev.Node, ev.Factor)
	}
	in.fired = append(in.fired, ev)
	if c := in.col; c != nil {
		if in.injected == nil {
			in.injected = c.Counter("faults.injected")
		}
		in.injected.Add(1)
		if in.perKind[ev.Kind] == nil {
			in.perKind[ev.Kind] = c.Counter("faults." + ev.Kind.String())
		}
		in.perKind[ev.Kind].Add(1)
		// A live collector drops a span at End, so an instant span
		// there is never seen: skip the name, the span and the
		// goroutine-id walk that opening it costs.
		if !c.Live() {
			c.StartSpan(fmt.Sprintf("fault/%s/n%d", ev.Kind, ev.Node), "fault",
				obs.Float("sim_hours", ev.Hours), obs.Int("node", int64(ev.Node))).End()
		}
	}
	if in.onFault != nil {
		in.onFault(ev)
	}
}
