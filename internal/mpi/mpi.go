// Package mpi is a message-passing runtime in the style of MPI,
// executing rank programs as simulation processes over a modelled
// cluster (internal/cluster) and charging every byte to the simulated
// interconnect: protocol CPU overheads block the sending/receiving
// rank, wire time occupies the shared links, and rendezvous handshakes
// appear above the protocol threshold — the communication behaviour
// the paper measures in §4.1 and that shapes the §4 scalability runs.
//
// Rank programs are ordinary Go functions. They carry real data in
// message payloads (the applications in internal/apps compute real
// numerics), while time is fully virtual: computation is charged via
// Rank.Compute and communication via the network model, so a 96-node
// HPL run simulates in milliseconds of host time.
//
// Tags from collBase (1<<20) up are reserved for the collectives'
// internal traffic; application code must use smaller tags, and Send,
// Isend, Recv and Irecv panic on a reserved tag outside a collective.
// A collective-tagged message that arrives after its receiver has left
// that collective can never be matched, so the receiver retires it
// instead of queueing it (see Rank.retired); Comm.Unmatched counts
// them.
package mpi

import (
	"fmt"
	"slices"

	"mobilehpc/internal/cluster"
	"mobilehpc/internal/interconnect"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/perf"
	"mobilehpc/internal/sim"
	"mobilehpc/internal/trace"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Msg is an in-flight message.
type Msg struct {
	Src, Tag int
	Bytes    int
	Data     any
}

// recvWait is a posted receive: deliver runs when a matching message
// arrives, in the sender's dispatch slot — it belongs to a blocking
// Recv (wake the parked rank) or an Irecv (complete the request).
type recvWait struct {
	src, tag int
	deliver  func(*Msg)
}

// Rank is one MPI process. All methods that advance time must be
// called from within the rank's own program.
//
// pending is the unexpected-message queue, scanned linearly by match.
// It holds only messages some future receive may still match: a
// collective-tagged copy for a collective this rank has left is
// retired on arrival (deliver) or when the collective exits (endColl),
// so the queue stays bounded by live traffic.
type Rank struct {
	id      int
	comm    *Comm
	proc    *sim.Proc
	pending []*Msg
	waiting []*recvWait
	collSeq int  // per-rank collective invocation counter (see collTag)
	inColl  bool // inside a collective: its tags are live, tracing is suppressed

	// Event-driven protocol path. Send and the blocked arm of Recv park
	// the rank exactly once: the protocol steps in between (injection
	// cost, rendezvous round trip, per-link wire time, receive cost)
	// chain as engine events through these continuations, which are
	// bound once at startup so a steady-state Send allocates only its
	// Msg. The event times and sequence numbers are identical to the
	// old park-per-step path — each continuation posts from the same
	// dispatch slot the blocking code posted from — which is what keeps
	// goldens and traces byte-identical.
	snd      *interconnect.Delivery
	sndDst   int
	sndBytes int
	sndStep  func()   // after SendCost: charge rendezvous, then ship
	sndShip  func()   // put the payload on the wire
	recvStep func()   // arrival slot: charge RecvCost, then wake
	rcvMsg   *Msg     // message the blocked Recv is consuming
	rcvT1    float64  // arrival time of that message
	rw       recvWait // reusable waiting record for blocking Recv
	wakeFn   func()   // resumes the rank directly (chain's final event)
}

// initChains binds the per-rank continuations. Called once per rank at
// startup, after the process exists.
func (r *Rank) initChains() {
	eng := r.comm.Cl.Eng
	r.snd = interconnect.NewDelivery(r.comm.Cl.Net)
	r.wakeFn = func() { r.proc.Wake() }
	r.sndShip = func() { r.snd.Start(r.id, r.sndDst, r.sndBytes, r.wakeFn) }
	r.sndStep = func() {
		if th := r.comm.Cl.Proto.RendezvousBytes; th > 0 && r.sndBytes > th {
			// RTS/CTS round trip before the payload moves.
			ep := r.Node().Endpoint(r.comm.Cl.Proto)
			eng.After(2*ep.SoftwareLatencyUS()*1e-6, r.sndShip)
			return
		}
		r.sndShip()
	}
	r.recvStep = func() {
		r.rcvT1 = r.proc.Now()
		ep := r.Node().Endpoint(r.comm.Cl.Proto)
		eng.After(ep.RecvCost(r.rcvMsg.Bytes), r.wakeFn)
	}
	r.rw.deliver = func(m *Msg) {
		r.rcvMsg = m
		eng.After(0, r.recvStep)
	}
}

// Comm is the communicator tying ranks to cluster nodes (one rank per
// node, as on Tibidabo).
type Comm struct {
	Cl    *cluster.Cluster
	ranks []*Rank
	// Stats accumulated across the run.
	BytesSent int64
	Msgs      int64
	// Unmatched counts collective-tagged messages retired undelivered:
	// copies that reached a rank after it had left the collective they
	// belong to, which no receive can ever match. Their senders still
	// paid for them, so Msgs, BytesSent and CommMatrix include them.
	// Added to the obs counter "mpi.unmatched" when the run ends.
	Unmatched int64
	// pairBytes[src*Size+dst] accumulates point-to-point traffic for
	// the communication matrix (collective-internal traffic included:
	// it travels the same wires).
	pairBytes []int64

	hostSyncQ []*sim.Queue
	hostSyncN int
	tracer    *trace.Trace

	// xferBytes histograms this communicator's point-to-point message
	// sizes while telemetry is on (nil when off). It is local to the
	// communicator, so a Send never touches a histogram shared with
	// concurrent runs; runCommon merges it into the collector's
	// "mpi.transfer_bytes" once, when the run ends.
	xferBytes *obs.Histogram
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// ID returns the rank index.
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.Size() }

// Now returns current virtual time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// Node returns the cluster node this rank runs on.
func (r *Rank) Node() *cluster.Node { return r.comm.Cl.Nodes[r.id] }

// Run executes prog as n ranks over cl (n <= cluster size) and returns
// the virtual time at which the last rank finished. It panics if any
// rank deadlocks (the simulation drains with live processes).
func Run(cl *cluster.Cluster, n int, prog func(r *Rank)) float64 {
	_, end := RunStats(cl, n, prog)
	return end
}

// RunTraced is RunStats with a Paraver-style trace of every rank's
// states (see internal/trace); the per-message and per-compute
// intervals of the run are recorded for post-mortem analysis, the §4
// workflow that uncovered Tibidabo's interconnect timeouts.
func RunTraced(cl *cluster.Cluster, n int, prog func(r *Rank)) (*trace.Trace, *Comm, float64) {
	tr := trace.New(n)
	comm, end := runCommon(cl, n, prog, tr)
	return tr, comm, end
}

// RunStats is Run but also returns the communicator for statistics.
func RunStats(cl *cluster.Cluster, n int, prog func(r *Rank)) (*Comm, float64) {
	return runCommon(cl, n, prog, nil)
}

func runCommon(cl *cluster.Cluster, n int, prog func(r *Rank), tr *trace.Trace) (*Comm, float64) {
	if n <= 0 || n > cl.Size() {
		panic(fmt.Sprintf("mpi: %d ranks on %d-node cluster", n, cl.Size()))
	}
	comm := &Comm{Cl: cl, ranks: make([]*Rank, n), tracer: tr,
		pairBytes: make([]int64, n*n)}
	if col := obs.Active(); col != nil {
		comm.xferBytes = &obs.Histogram{}
		defer col.Histogram("mpi.transfer_bytes").Merge(comm.xferBytes)
	}
	for i := 0; i < n; i++ {
		r := &Rank{id: i, comm: comm}
		comm.ranks[i] = r
		r.proc = cl.Eng.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			prog(r)
		})
		r.initChains()
	}
	end := cl.Eng.RunAll()
	if cl.Eng.LiveProcs() != 0 {
		panic(fmt.Sprintf("mpi: deadlock — %d ranks still blocked at t=%v",
			cl.Eng.LiveProcs(), end))
	}
	obs.Active().Counter("mpi.unmatched").Add(comm.Unmatched)
	return comm, end
}

// record emits a trace interval from t0 to now if tracing is on and
// the rank is not inside a collective (which records itself as one
// interval).
func (r *Rank) record(s trace.State, t0 float64) {
	r.recordSpan(s, t0, r.proc.Now())
}

// recordSpan is record with an explicit end time, for paths that learn
// an interval boundary from an event chain rather than from the clock
// at call time (the blocked arm of Recv).
func (r *Rank) recordSpan(s trace.State, t0, t1 float64) {
	if tr := r.comm.tracer; tr != nil && !r.inColl {
		tr.Record(r.id, s, t0, t1)
	}
}

// Compute blocks the rank for d seconds of virtual time (modelled
// computation).
func (r *Rank) Compute(d float64) {
	if d < 0 {
		panic("mpi: negative compute time")
	}
	if d > 0 {
		t0 := r.proc.Now()
		r.proc.Wait(d)
		r.record(trace.Compute, t0)
	}
}

// ComputeWork charges the node's modelled execution time for work
// shaped like pr using `threads` cores of the node.
func (r *Rank) ComputeWork(pr perf.Profile, threads int) float64 {
	d := r.Node().ComputeTime(pr, threads)
	t0 := r.proc.Now()
	r.proc.Wait(d)
	r.record(trace.Compute, t0)
	return d
}

// Send transmits bytes (with optional payload data) to rank dst with a
// tag. It blocks for the sender-side protocol cost and the wire time,
// matching a blocking MPI_Send over a slow fabric. A rendezvous
// handshake is charged above the protocol threshold.
func (r *Rank) Send(dst, tag int, data any, bytes int) {
	if dst == r.id {
		panic("mpi: send to self (use local data)")
	}
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	r.checkTag(tag)
	ep := r.Node().Endpoint(r.comm.Cl.Proto)
	t0 := r.proc.Now()
	// One park for the whole protocol sequence: injection cost, the
	// rendezvous round trip when the message is above threshold, and
	// the wire delivery all chain as events (sndStep -> sndShip ->
	// Delivery), whose last one resumes the rank directly.
	r.sndDst, r.sndBytes = dst, bytes
	r.comm.Cl.Eng.After(ep.SendCost(bytes), r.sndStep)
	r.proc.Suspend()
	r.record(trace.Send, t0)
	r.comm.BytesSent += int64(bytes)
	r.comm.Msgs++
	r.comm.pairBytes[r.id*r.Size()+dst] += int64(bytes)
	r.comm.xferBytes.Observe(int64(bytes))
	r.comm.ranks[dst].deliver(&Msg{Src: r.id, Tag: tag, Bytes: bytes, Data: data})
}

// CommMatrix returns the accumulated src x dst traffic matrix in bytes
// — Paraver's who-talks-to-whom view, the first thing trace analysis
// plots when a run scales badly.
func (c *Comm) CommMatrix() [][]int64 {
	n := len(c.ranks)
	out := make([][]int64, n)
	for s := 0; s < n; s++ {
		out[s] = append([]int64(nil), c.pairBytes[s*n:(s+1)*n]...)
	}
	return out
}

// deliver hands a message to a matching waiter, if any, and otherwise
// places it in r's pending set — unless no receive can ever match it
// (retired), in which case it is counted in Comm.Unmatched and
// dropped. Runs in the sender's process context; a woken receiver
// resumes through the event queue (the waiter's deliver posts its
// wake) so ordering is deterministic.
func (r *Rank) deliver(m *Msg) {
	if r.retired(m.Tag) {
		r.comm.Unmatched++
		return
	}
	for i, w := range r.waiting {
		if (w.src == AnySource || w.src == m.Src) && (w.tag == AnyTag || w.tag == m.Tag) {
			r.waiting = slices.Delete(r.waiting, i, i+1)
			w.deliver(m)
			return
		}
	}
	r.pending = append(r.pending, m)
}

// checkTag panics if an application call outside a collective uses a
// tag in the collectives' reserved range: such a message could be
// mistaken for collective traffic, and retired unreceived.
func (r *Rank) checkTag(tag int) {
	if tag >= collBase && !r.inColl {
		panic(fmt.Sprintf("mpi: tag %d is reserved for collectives (application tags must be below %d)", tag, collBase))
	}
}

// Recv blocks until a message matching (src, tag) arrives — use
// AnySource / AnyTag as wildcards — then charges the receiver-side
// protocol cost and returns the message.
func (r *Rank) Recv(src, tag int) *Msg {
	r.checkTag(tag)
	t0 := r.proc.Now()
	m := r.match(src, tag)
	if m == nil {
		// One park for wait-plus-receive: arrival posts recvStep (the
		// slot the old queue wake occupied), which charges the receive
		// cost as an event whose dispatch resumes the rank.
		r.rw.src, r.rw.tag = src, tag
		r.waiting = append(r.waiting, &r.rw)
		r.proc.Suspend()
		m = r.rcvMsg
		r.rcvMsg = nil
		r.recordSpan(trace.Wait, t0, r.rcvT1)
		r.recordSpan(trace.Recv, r.rcvT1, r.proc.Now())
		return m
	}
	r.record(trace.Wait, t0)
	t1 := r.proc.Now()
	ep := r.Node().Endpoint(r.comm.Cl.Proto)
	r.proc.Wait(ep.RecvCost(m.Bytes))
	r.record(trace.Recv, t1)
	return m
}

// match removes and returns the first pending message matching the
// (src, tag) pair, or nil.
func (r *Rank) match(src, tag int) *Msg {
	for i, m := range r.pending {
		if (src == AnySource || src == m.Src) && (tag == AnyTag || tag == m.Tag) {
			r.pending = slices.Delete(r.pending, i, i+1)
			return m
		}
	}
	return nil
}

// HostSync synchronises all rank goroutines without modelling any
// communication: no messages are sent and the virtual clock of each
// rank only advances to the latest arrival. Applications use it to
// sequence their shared-memory realisation of distributed state (for
// example, flipping a double buffer that in the real code is private
// per rank); the real code has no corresponding operation, so charging
// a modelled barrier here would overstate communication.
func (r *Rank) HostSync() {
	c := r.comm
	if c.hostSyncQ == nil {
		c.hostSyncQ = make([]*sim.Queue, len(c.ranks))
		for i := range c.hostSyncQ {
			c.hostSyncQ[i] = sim.NewQueue(c.Cl.Eng)
		}
	}
	c.hostSyncN++
	if c.hostSyncN == len(c.ranks) {
		// Last to arrive at this epoch: release everyone.
		c.hostSyncN = 0
		t := r.proc.Now()
		for i, q := range c.hostSyncQ {
			if i != r.id {
				q.Push(t)
			}
		}
		return
	}
	t := c.hostSyncQ[r.id].Pop(r.proc).(float64)
	r.proc.WaitUntil(t)
}

// SendRecv performs a blocking exchange with a partner: sends first if
// this rank has the lower id, which avoids head-of-line blocking on
// symmetric exchanges. Returns the received message.
func (r *Rank) SendRecv(peer, tag int, data any, bytes int) *Msg {
	if r.id < peer {
		r.Send(peer, tag, data, bytes)
		return r.Recv(peer, tag)
	}
	m := r.Recv(peer, tag)
	r.Send(peer, tag, data, bytes)
	return m
}
