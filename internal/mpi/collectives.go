package mpi

import (
	"fmt"
	"slices"

	"mobilehpc/internal/trace"
)

// beginColl marks the start of a collective: its tags are live until
// the returned closure runs at exit, which retires any stray copies it
// left in pending (see retired). For tracing, the whole operation
// records as one Collective interval and suppresses the per-message
// intervals of its internal sends and receives.
func (r *Rank) beginColl() func() {
	r.inColl = true
	if r.comm.tracer == nil {
		return r.endColl
	}
	t0 := r.proc.Now()
	return func() {
		r.endColl()
		r.comm.tracer.Record(r.id, trace.Collective, t0, r.proc.Now())
	}
}

// endColl leaves the current collective and sweeps pending once for
// its copies that arrived while the rank was still inside, such as
// the second copy of a broadcast taken from whichever sender came
// first. From here on deliver retires them on arrival.
func (r *Rank) endColl() {
	r.inColl = false
	n := len(r.pending)
	r.pending = slices.DeleteFunc(r.pending, func(m *Msg) bool { return r.retired(m.Tag) })
	r.comm.Unmatched += int64(n - len(r.pending))
}

// Collective traffic uses a reserved high tag range so application
// point-to-point tags (small integers) never collide with it; Send,
// Isend, Recv and Irecv refuse tags >= collBase outside a collective.
// Every collective invocation consumes one sequence number — all ranks
// call collectives in the same order (an MPI correctness requirement),
// so sequence numbers agree across ranks and traffic from consecutive
// collectives cannot be confused even when propagation overlaps.
const (
	collBase = 1 << 20
	collSubs = 4096 // sub-operation tags per collective invocation
)

// collTag returns the tag for sub-operation `sub` (round or step index)
// of the current collective invocation. A sub outside [0, collSubs)
// would alias a neighbouring invocation's tags, so it panics.
func (r *Rank) collTag(sub int) int {
	if sub < 0 || sub >= collSubs {
		panic(fmt.Sprintf("mpi: collective step %d out of range [0, %d)", sub, collSubs))
	}
	return collBase + r.collSeq*collSubs + sub
}

// retired reports whether a message with this tag can no longer be
// matched by any receive r will post. collSeq only grows, it is bumped
// on entry to each collective, and a collective receives only its own
// tags; so a collective-tagged message is dead once its sequence
// number is below collSeq, or equal to it after r has left that
// collective. A message for a later collective (a fast sender running
// ahead) is live and kept. Application tags never retire.
func (r *Rank) retired(tag int) bool {
	if tag < collBase {
		return false
	}
	seq := (tag - collBase) / collSubs
	return seq < r.collSeq || seq == r.collSeq && !r.inColl
}

// Barrier synchronises all ranks with the dissemination algorithm:
// ceil(log2 n) rounds of paired zero-byte messages.
func (r *Rank) Barrier() {
	defer r.beginColl()()
	n := r.Size()
	r.collSeq++
	if n == 1 {
		return
	}
	for k, round := 1, 0; k < n; k, round = k*2, round+1 {
		dst := (r.id + k) % n
		src := (r.id - k + n) % n
		r.Send(dst, r.collTag(round), nil, 0)
		r.Recv(src, r.collTag(round))
	}
}

// Bcast distributes data of the given size from root using a binomial
// tree and returns the data on every rank.
func (r *Rank) Bcast(root int, data any, bytes int) any {
	defer r.beginColl()()
	n := r.Size()
	r.collSeq++
	if n == 1 {
		return data
	}
	// Rotate so the root is virtual rank 0.
	vr := (r.id - root + n) % n
	if vr != 0 {
		// Receive from parent first.
		m := r.Recv(AnySource, r.collTag(0))
		data = m.Data
	}
	// Forward to children: vr sends to vr|mask for each mask above its
	// own lowest set bit (binomial tree).
	for mask := 1; mask < n; mask <<= 1 {
		if vr&(mask-1) == 0 && vr&mask == 0 {
			child := vr | mask
			if child < n {
				r.Send((child+root)%n, r.collTag(0), data, bytes)
			}
		}
	}
	return data
}

// ReduceF64 combines one float64 per rank at the root with op (e.g.
// addition); non-root ranks return 0. The combining tree is binomial.
func (r *Rank) ReduceF64(root int, v float64, op func(a, b float64) float64) float64 {
	defer r.beginColl()()
	n := r.Size()
	r.collSeq++
	if n == 1 {
		return v
	}
	vr := (r.id - root + n) % n
	acc := v
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			r.Send((vr-mask+root)%n, r.collTag(0), acc, 8)
			return 0
		}
		peer := vr | mask
		if peer < n {
			m := r.Recv((peer+root)%n, r.collTag(0))
			acc = op(acc, m.Data.(float64))
		}
	}
	return acc
}

// AllreduceF64 combines one float64 across all ranks and returns the
// result everywhere (reduce to rank 0, then broadcast).
func (r *Rank) AllreduceF64(v float64, op func(a, b float64) float64) float64 {
	acc := r.ReduceF64(0, v, op)
	out := r.Bcast(0, acc, 8)
	return out.(float64)
}

// ReduceVecF64 element-wise combines equal-length slices at the root;
// non-root ranks return nil. The slice is copied before accumulation so
// callers' data is never aliased.
func (r *Rank) ReduceVecF64(root int, v []float64, op func(a, b float64) float64) []float64 {
	defer r.beginColl()()
	n := r.Size()
	r.collSeq++
	acc := append([]float64(nil), v...)
	if n == 1 {
		return acc
	}
	vr := (r.id - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			r.Send((vr-mask+root)%n, r.collTag(0), acc, 8*len(acc))
			return nil
		}
		peer := vr | mask
		if peer < n {
			m := r.Recv((peer+root)%n, r.collTag(0))
			other := m.Data.([]float64)
			if len(other) != len(acc) {
				panic(fmt.Sprintf("mpi: reduce length mismatch %d vs %d", len(other), len(acc)))
			}
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
	}
	return acc
}

// AllreduceVecF64 is ReduceVecF64 to rank 0 followed by a broadcast.
func (r *Rank) AllreduceVecF64(v []float64, op func(a, b float64) float64) []float64 {
	acc := r.ReduceVecF64(0, v, op)
	out := r.Bcast(0, acc, 8*len(v))
	res := out.([]float64)
	if r.id == 0 {
		return res
	}
	return append([]float64(nil), res...)
}

// Gather collects each rank's payload at the root (linear algorithm,
// as OpenMPI uses for small communicators); the root receives a slice
// indexed by rank, others return nil.
func (r *Rank) Gather(root int, data any, bytes int) []any {
	defer r.beginColl()()
	n := r.Size()
	r.collSeq++
	if r.id != root {
		r.Send(root, r.collTag(0), data, bytes)
		return nil
	}
	out := make([]any, n)
	out[root] = data
	for i := 0; i < n-1; i++ {
		m := r.Recv(AnySource, r.collTag(0))
		out[m.Src] = m.Data
	}
	return out
}

// Scatter sends parts[i] to rank i from the root (linear); every rank
// returns its own part. bytesEach is the per-destination message size.
func (r *Rank) Scatter(root int, parts []any, bytesEach int) any {
	defer r.beginColl()()
	n := r.Size()
	r.collSeq++
	if r.id == root {
		if len(parts) != n {
			panic(fmt.Sprintf("mpi: scatter needs %d parts, got %d", n, len(parts)))
		}
		for i := 0; i < n; i++ {
			if i != root {
				r.Send(i, r.collTag(0), parts[i], bytesEach)
			}
		}
		return parts[root]
	}
	return r.Recv(root, r.collTag(0)).Data
}

// Alltoall performs a pairwise exchange: parts[i] goes to rank i; the
// result slice holds what each rank sent to this one.
func (r *Rank) Alltoall(parts []any, bytesEach int) []any {
	defer r.beginColl()()
	n := r.Size()
	r.collSeq++
	if len(parts) != n {
		panic(fmt.Sprintf("mpi: alltoall needs %d parts, got %d", n, len(parts)))
	}
	out := make([]any, n)
	out[r.id] = parts[r.id]
	pow2 := n&(n-1) == 0
	for step := 1; step < n; step++ {
		if pow2 {
			peer := r.id ^ step
			m := r.SendRecv(peer, r.collTag(step), parts[peer], bytesEach)
			out[peer] = m.Data
			continue
		}
		// Non-power-of-two sizes: ordered ring exchange.
		peer := (r.id + step) % n
		src := (r.id - step + n) % n
		r.Send(peer, r.collTag(step), parts[peer], bytesEach)
		m := r.Recv(src, r.collTag(step))
		out[src] = m.Data
	}
	return out
}

// Allgather collects every rank's payload on every rank with the ring
// algorithm (OpenMPI's large-message choice): n-1 steps, each rank
// forwarding the block it received last step to its successor, so the
// critical path carries the assembled vector exactly once per link
// rather than log(n) times as a gather+broadcast would. bytes is the
// per-rank contribution.
func (r *Rank) Allgather(data any, bytes int) []any {
	defer r.beginColl()()
	n := r.Size()
	r.collSeq++
	all := make([]any, n)
	all[r.id] = data
	if n == 1 {
		return all
	}
	next := (r.id + 1) % n
	prev := (r.id - 1 + n) % n
	carry := data
	carrySrc := r.id
	for step := 0; step < n-1; step++ {
		r.Send(next, r.collTag(step), [2]any{carrySrc, carry}, bytes)
		m := r.Recv(prev, r.collTag(step))
		pair := m.Data.([2]any)
		carrySrc = pair[0].(int)
		carry = pair[1]
		all[carrySrc] = carry
	}
	return all
}
