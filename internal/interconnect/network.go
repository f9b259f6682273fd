package interconnect

import (
	"fmt"
	"math"

	"mobilehpc/internal/sim"
)

// Link is a unidirectional point-to-point channel with finite
// bandwidth, modelled as a serially-occupied resource: one message
// holds the link for its serialisation time (store-and-forward).
type Link struct {
	Name string
	Gbps float64
	eng  *sim.Engine
	res  *sim.Resource
	// degrade multiplies serialisation time: 1 is nominal, >1 models
	// the §6.1 failure mode where an unstable PCIe/NIC attach delivers
	// only a fraction of line rate. Mutated via Degrade/Restore.
	degrade float64
}

// NewLink creates a link bound to engine e.
func NewLink(e *sim.Engine, name string, gbps float64) *Link {
	if gbps <= 0 {
		panic("interconnect: non-positive link bandwidth")
	}
	return &Link{Name: name, Gbps: gbps, eng: e, res: sim.NewResource(e, 1), degrade: 1}
}

// SerializationTime returns the wire time for m bytes, including any
// active degradation factor.
func (l *Link) SerializationTime(m int) float64 {
	return float64(m) * 8 / (l.Gbps * 1e9) * l.degrade
}

// Degrade stretches the link's serialisation time by factor — the §6.1
// failure mode where a flaky PCIe/NIC attach drops to a fraction of
// nominal bandwidth. Factors compound: a second Degrade multiplies the
// first. Affects in-flight traffic from the next chunk onward.
func (l *Link) Degrade(factor float64) {
	if factor < 1 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("interconnect: degrade factor %v < 1 on %s", factor, l.Name))
	}
	l.degrade *= factor
}

// Restore resets the link to nominal bandwidth (e.g. after the node's
// NIC is power-cycled during a restart).
func (l *Link) Restore() { l.degrade = 1 }

// DegradeFactor returns the current serialisation-time multiplier
// (1 when the link is healthy).
func (l *Link) DegradeFactor() float64 { return l.degrade }

// Transfer occupies the link for m bytes from process p, blocking p
// while the link is busy with earlier messages.
func (l *Link) Transfer(p *sim.Proc, m int) {
	l.res.Acquire(p)
	p.Wait(l.SerializationTime(m))
	l.res.Release()
}

// TransferFunc is the event-driven counterpart of Transfer: it takes
// the link, schedules one serialisation event, releases, and then runs
// done — all without parking a process. Acquisition keeps the same FIFO
// slot a blocking Transfer would have had, so contended interleavings
// (and goldens) are unchanged.
func (l *Link) TransferFunc(m int, done func()) {
	l.res.AcquireFunc(func() {
		l.eng.After(l.SerializationTime(m), func() {
			l.res.Release()
			done()
		})
	})
}

// TransferChunked moves m bytes in chunks of at most `chunk` bytes,
// releasing the link between chunks so concurrent flows interleave —
// packet-granularity fairness instead of whole-message FIFO. With
// chunk <= 0 it degenerates to Transfer.
func (l *Link) TransferChunked(p *sim.Proc, m, chunk int) {
	if chunk <= 0 || m <= chunk {
		l.Transfer(p, m)
		return
	}
	// Event-driven chunk pump: instead of a per-chunk blocking
	// Acquire/Wait/Release cycle (one pooled event plus two goroutine
	// handoffs per chunk), the chunks run as a two-state machine on the
	// engine — acquire the link, schedule one chunk-end event, release,
	// repeat — and p parks exactly once for the whole message. The event
	// times and scheduling order are identical to the blocking loop
	// (acquisition keeps its FIFO slot via AcquireFunc, and re-acquiring
	// after a release still goes behind queued waiters), so contended
	// interleavings — and goldens — are unchanged.
	sent, cur := 0, 0
	var acquired, sentDone func()
	acquired = func() {
		cur = min(chunk, m-sent)
		l.eng.After(l.SerializationTime(cur), sentDone)
	}
	sentDone = func() {
		sent += cur
		l.res.Release()
		if sent < m {
			l.res.AcquireFunc(acquired)
		} else {
			p.Wake()
		}
	}
	l.res.Acquire(p)
	acquired()
	p.Suspend()
}

// Network is a set of endpoints (node indices) joined by a routed
// topology of links plus per-hop switch latency.
type Network struct {
	Eng         *sim.Engine
	SwitchLatUS float64 // per switch traversal, µs
	// ChunkBytes, when positive, packetises link occupancy: messages
	// hold each link for at most this many bytes at a time, so
	// concurrent flows share a congested link fairly instead of
	// queueing whole messages FIFO. Zero keeps message granularity
	// (the calibrated default).
	ChunkBytes int
	route      func(src, dst int) []*Link
	nodes      int
	// routeCache memoises route per (src,dst) pair, allocated lazily on
	// first Route call. Safe because topologies route deterministically
	// over a static link set: faults mutate link *state* (Degrade), never
	// path membership.
	routeCache [][]*Link
	// up/down are the per-node NIC-attach links for topologies that
	// have exactly one NIC per node (star, tree). Nil for topologies
	// without a distinguished per-node attach point (the 3-D torus,
	// where a node owns six directional links).
	up, down []*Link
}

// NodeLinks returns node id's NIC-attach links (uplink then downlink),
// or nil for topologies without per-node NIC links (the torus).
func (n *Network) NodeLinks(id int) []*Link {
	if id < 0 || id >= n.nodes {
		panic(fmt.Sprintf("interconnect: node %d outside %d nodes", id, n.nodes))
	}
	if n.up == nil {
		return nil
	}
	return []*Link{n.up[id], n.down[id]}
}

// DegradeNode stretches both NIC links of node id by factor — the
// fault-injection hook for §6.1 PCIe/NIC instability. Panics on
// topologies that do not expose per-node NIC links.
func (n *Network) DegradeNode(id int, factor float64) {
	links := n.NodeLinks(id)
	if links == nil {
		panic("interconnect: topology has no per-node NIC links to degrade")
	}
	for _, l := range links {
		l.Degrade(factor)
	}
}

// RestoreNode resets node id's NIC links to nominal bandwidth. A no-op
// on topologies without per-node NIC links.
func (n *Network) RestoreNode(id int) {
	for _, l := range n.NodeLinks(id) {
		l.Restore()
	}
}

// Nodes returns the number of attached endpoints.
func (n *Network) Nodes() int { return n.nodes }

// Route returns the link path between two nodes. The returned slice is
// cached and shared across calls for the same pair; callers must not
// modify it.
func (n *Network) Route(src, dst int) []*Link {
	if src < 0 || src >= n.nodes || dst < 0 || dst >= n.nodes {
		panic(fmt.Sprintf("interconnect: route %d->%d outside %d nodes", src, dst, n.nodes))
	}
	if src == dst {
		return nil
	}
	if n.routeCache == nil {
		n.routeCache = make([][]*Link, n.nodes*n.nodes)
	}
	idx := src*n.nodes + dst
	if r := n.routeCache[idx]; r != nil {
		return r
	}
	r := n.route(src, dst)
	n.routeCache[idx] = r
	return r
}

// Deliver moves an m-byte message from src to dst on behalf of process
// p: each link on the path is held for its serialisation time, and each
// switch adds its forwarding latency.
func (n *Network) Deliver(p *sim.Proc, src, dst, m int) {
	path := n.Route(src, dst)
	for _, l := range path {
		l.TransferChunked(p, m, n.ChunkBytes)
	}
	if len(path) > 1 {
		// hops through switches = links - 1 for a single-switch path,
		// but every link lands on a switch except the last (NIC): use
		// len(path)-1 switch traversals.
		p.Wait(float64(len(path)-1) * n.SwitchLatUS * 1e-6)
	}
}

// Delivery is the event-driven counterpart of Deliver: a reusable
// state machine that moves one message across its route as a chain of
// engine events, parking no process. Its event times, scheduling order
// and resource-queue positions are identical to the blocking path —
// each link is acquired in FIFO order, held per chunk for exactly the
// serialisation time the blocking loop would charge, and released in
// the same dispatch slot — so runs driven through either API produce
// the same event trace.
//
// One Delivery carries one message at a time. Callers whose sends are
// serial (an MPI rank) keep a single Delivery and reuse it, making the
// steady-state delivery path allocation-free; concurrent flows each
// need their own.
type Delivery struct {
	net       *Network
	path      []*Link
	li        int // index of the link currently being crossed
	m         int // message size, bytes
	sent, cur int // progress across the current link
	done      func()
	// The two machine states, bound once at construction so the pump
	// schedules no per-chunk closures.
	acquired func() // link held: schedule the next chunk's wire time
	sentDone func() // chunk on the wire: release, advance
}

// NewDelivery returns an idle Delivery over n's topology.
func NewDelivery(n *Network) *Delivery {
	d := &Delivery{net: n}
	d.acquired = func() {
		l := d.path[d.li]
		rem := d.m - d.sent
		if c := d.net.ChunkBytes; c > 0 && c < rem {
			d.cur = c
		} else {
			d.cur = rem
		}
		d.net.Eng.After(l.SerializationTime(d.cur), d.sentDone)
	}
	d.sentDone = func() {
		d.sent += d.cur
		d.path[d.li].res.Release()
		if d.sent < d.m {
			// More chunks on this link: re-acquire behind queued waiters,
			// exactly as the blocking pump does.
			d.path[d.li].res.AcquireFunc(d.acquired)
			return
		}
		d.li++
		if d.li < len(d.path) {
			d.sent = 0
			d.path[d.li].res.AcquireFunc(d.acquired)
			return
		}
		d.finish()
	}
	return d
}

// Start begins delivering m bytes from src to dst; done runs when the
// message has fully arrived (including switch forwarding latency). For
// a zero-length route (src == dst) done runs synchronously before
// Start returns — otherwise it runs from engine context, in the very
// dispatch slot where the blocking Deliver would have resumed its
// process. Starting a Delivery that is already in flight panics.
func (d *Delivery) Start(src, dst, m int, done func()) {
	if d.done != nil {
		panic("interconnect: Delivery already in flight")
	}
	path := d.net.Route(src, dst)
	if len(path) == 0 {
		done()
		return
	}
	d.path, d.li, d.m, d.sent, d.done = path, 0, m, 0, done
	path[0].res.AcquireFunc(d.acquired)
}

// finish charges the per-hop switch latency and hands off to done,
// resetting the machine for reuse first so done may immediately Start
// the next message.
func (d *Delivery) finish() {
	hops := len(d.path) - 1
	done := d.done
	d.path, d.done = nil, nil
	if hops > 0 {
		d.net.Eng.After(float64(hops)*d.net.SwitchLatUS*1e-6, done)
		return
	}
	done()
}

// DeliverFunc is the event-driven counterpart of Deliver for one-shot
// callers: it allocates a fresh Delivery per message. Steady-state
// callers should hold a reusable Delivery instead.
func (n *Network) DeliverFunc(src, dst, m int, done func()) {
	NewDelivery(n).Start(src, dst, m, done)
}

// PathHops returns the number of switch-to-switch hops between nodes —
// the quantity the paper bounds at three for Tibidabo.
func (n *Network) PathHops(src, dst int) int {
	path := n.Route(src, dst)
	if len(path) == 0 {
		return 0
	}
	return len(path) - 1
}

// SingleSwitch builds a star topology: every node connects up and down
// to one switch. Link capacity gbps each way.
func SingleSwitch(e *sim.Engine, nodes int, gbps, switchLatUS float64) *Network {
	up := make([]*Link, nodes)
	down := make([]*Link, nodes)
	for i := range up {
		up[i] = NewLink(e, fmt.Sprintf("up%d", i), gbps)
		down[i] = NewLink(e, fmt.Sprintf("down%d", i), gbps)
	}
	return &Network{
		Eng: e, SwitchLatUS: switchLatUS, nodes: nodes, up: up, down: down,
		route: func(src, dst int) []*Link {
			return []*Link{up[src], down[dst]}
		},
	}
}

// Tree builds the two-level hierarchical Ethernet of Tibidabo: leaf
// switches with `radix` node ports each, joined by a core switch
// through uplinks of uplinkGbps (aggregated trunks; the bisection
// bandwidth is leaves*uplinkGbps/2 each way).
func Tree(e *sim.Engine, nodes, radix int, gbps, uplinkGbps, switchLatUS float64) *Network {
	if radix <= 0 {
		panic("interconnect: non-positive radix")
	}
	leaves := (nodes + radix - 1) / radix
	up := make([]*Link, nodes)
	down := make([]*Link, nodes)
	for i := range up {
		up[i] = NewLink(e, fmt.Sprintf("up%d", i), gbps)
		down[i] = NewLink(e, fmt.Sprintf("down%d", i), gbps)
	}
	trunkUp := make([]*Link, leaves)
	trunkDown := make([]*Link, leaves)
	for l := range trunkUp {
		trunkUp[l] = NewLink(e, fmt.Sprintf("trunkUp%d", l), uplinkGbps)
		trunkDown[l] = NewLink(e, fmt.Sprintf("trunkDown%d", l), uplinkGbps)
	}
	return &Network{
		Eng: e, SwitchLatUS: switchLatUS, nodes: nodes, up: up, down: down,
		route: func(src, dst int) []*Link {
			ls, ld := src/radix, dst/radix
			if ls == ld {
				return []*Link{up[src], down[dst]}
			}
			return []*Link{up[src], trunkUp[ls], trunkDown[ld], down[dst]}
		},
	}
}

// BisectionGbps returns the bisection bandwidth of a Tree network
// configuration (informational; Tibidabo's is 8 Gb/s).
func BisectionGbps(nodes, radix int, uplinkGbps float64) float64 {
	leaves := (nodes + radix - 1) / radix
	half := leaves / 2
	if half == 0 {
		half = 1
	}
	return float64(half) * uplinkGbps
}
