package mpi

import "mobilehpc/internal/interconnect"

// Request is a handle for a nonblocking operation; Wait blocks the
// owning rank until the operation completes. Completion is event-driven:
// the operation's last event marks the request ready and, if the owner
// is already parked in Wait, posts its wake — there is no helper
// goroutine or queue behind a request.
type Request struct {
	rank    *Rank
	done    bool // completion consumed by Wait/Done
	ready   bool // operation complete; msg holds any result
	waiting bool // owner parked in Wait
	msg     *Msg // for Irecv: the received message
}

// complete marks the operation finished (m is the received message for
// Irecv, nil for Isend) and wakes the owner if it is parked in Wait.
// Runs in the completing party's context — the sender's process for a
// matched Irecv, an engine event for an Isend chain — and the wake goes
// through the event queue, in the same slot the old queue push used.
func (req *Request) complete(m *Msg) {
	req.msg = m
	req.ready = true
	if req.waiting {
		req.waiting = false
		req.rank.proc.PostWake()
	}
}

// Wait blocks until the operation completes and, for receives, returns
// the message (nil for sends). Waiting twice is a no-op.
func (req *Request) Wait() *Msg {
	if !req.done {
		if !req.ready {
			req.waiting = true
			req.rank.proc.Suspend()
		}
		req.done = true
	}
	return req.msg
}

// Done reports whether the operation has completed without blocking.
func (req *Request) Done() bool {
	if !req.done && req.ready {
		req.done = true
	}
	return req.done
}

// Isend starts a nonblocking send: the sender is charged only the CPU
// injection cost; wire time and delivery proceed as an event chain,
// overlapping with the caller's subsequent computation — the
// latency-hiding technique §6.3 recommends for slow mobile-SoC
// interconnects. Wait returns once the message is delivered.
func (r *Rank) Isend(dst, tag int, data any, bytes int) *Request {
	if dst == r.id {
		panic("mpi: isend to self")
	}
	if dst < 0 || dst >= r.Size() {
		panic("mpi: isend to invalid rank")
	}
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	r.checkTag(tag)
	ep := r.Node().Endpoint(r.comm.Cl.Proto)
	// CPU injection cost blocks the caller (it is core time).
	r.proc.Wait(ep.SendCost(bytes))
	req := &Request{rank: r}
	eng := r.comm.Cl.Eng
	// In-flight sends overlap, so each request gets its own Delivery.
	d := interconnect.NewDelivery(r.comm.Cl.Net)
	ship := func() {
		d.Start(r.id, dst, bytes, func() {
			r.comm.BytesSent += int64(bytes)
			r.comm.Msgs++
			r.comm.pairBytes[r.id*r.Size()+dst] += int64(bytes)
			r.comm.ranks[dst].deliver(&Msg{Src: r.id, Tag: tag, Bytes: bytes, Data: data})
			req.complete(nil)
		})
	}
	// The zero-delay start event keeps the slot the old helper
	// process's spawn occupied.
	eng.After(0, func() {
		if th := r.comm.Cl.Proto.RendezvousBytes; th > 0 && bytes > th {
			eng.After(2*ep.SoftwareLatencyUS()*1e-6, ship)
			return
		}
		ship()
	})
	return req
}

// Irecv starts a nonblocking receive for a matching (src, tag) message
// (wildcards allowed). The receiver-side protocol cost is charged at
// Wait time, when the message is consumed.
func (r *Rank) Irecv(src, tag int) *Request {
	r.checkTag(tag)
	req := &Request{rank: r}
	if m := r.match(src, tag); m != nil {
		req.msg, req.ready = m, true
	} else {
		r.waiting = append(r.waiting, &recvWait{src: src, tag: tag, deliver: req.complete})
	}
	return req
}

// WaitRecv completes an Irecv: blocks for the message, charges the
// receiver-side protocol cost, and returns it.
func (r *Rank) WaitRecv(req *Request) *Msg {
	m := req.Wait()
	if m == nil {
		panic("mpi: WaitRecv on a send request")
	}
	ep := r.Node().Endpoint(r.comm.Cl.Proto)
	r.proc.Wait(ep.RecvCost(m.Bytes))
	return m
}

// WaitAll completes a set of requests in order; receive requests have
// their messages returned positionally (nil for sends). Receive CPU
// costs are charged as each message is consumed.
func (r *Rank) WaitAll(reqs []*Request) []*Msg {
	out := make([]*Msg, len(reqs))
	ep := r.Node().Endpoint(r.comm.Cl.Proto)
	for i, req := range reqs {
		m := req.Wait()
		if m != nil {
			r.proc.Wait(ep.RecvCost(m.Bytes))
		}
		out[i] = m
	}
	return out
}
