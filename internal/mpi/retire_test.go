package mpi

import "testing"

// A fast root's broadcast copy can reach a rank before that rank has
// entered the broadcast. Its sequence number is ahead of the rank's
// collSeq, so it is live: kept in pending and matched on entry.
func TestEarlyMessageForFutureCollectiveKept(t *testing.T) {
	var got any
	comm, _ := RunStats(testCluster(2), 2, func(r *Rank) {
		if r.ID() == 1 {
			r.Compute(1) // rank 0's copy arrives meanwhile
			if len(r.pending) != 1 {
				t.Errorf("pending before Bcast = %d, want the early copy", len(r.pending))
			}
		}
		v := r.Bcast(0, 42, 8)
		if r.ID() == 1 {
			got = v
		}
	})
	if got != 42 {
		t.Errorf("rank 1 got %v, want 42", got)
	}
	if comm.Unmatched != 0 {
		t.Errorf("Unmatched = %d, want 0", comm.Unmatched)
	}
}

// Both ranks root "the same" broadcast (the RunGrid pattern), so each
// sends the other a copy nobody receives. Rank 1 enters late: rank 0
// has left before rank 1's copy arrives, so deliver retires it on
// arrival — rank 0's own exit sweep ran too early to see it.
func TestDuplicateAfterExitRetiredAtDelivery(t *testing.T) {
	comm, _ := RunStats(testCluster(2), 2, func(r *Rank) {
		if r.ID() == 1 {
			r.Compute(0.5)
		}
		r.Bcast(r.ID(), r.ID(), 8)
		if r.ID() == 0 {
			r.Compute(1) // rank 1's copy arrives meanwhile
			if len(r.pending) != 0 {
				t.Errorf("rank 0 kept %d dead copies", len(r.pending))
			}
		}
	})
	// Rank 0's copy reached rank 1 early (a live future message) and
	// was swept when rank 1 left the broadcast.
	if comm.Unmatched != 2 {
		t.Errorf("Unmatched = %d, want 2", comm.Unmatched)
	}
	if comm.Msgs != 2 {
		t.Errorf("Msgs = %d, want 2: retired copies still count as sent", comm.Msgs)
	}
}

// A copy that arrives while its receiver is still inside the
// collective is live when it lands; the collective's exit sweeps it.
func TestDuplicateMidCollectiveSweptAtExit(t *testing.T) {
	comm, _ := RunStats(testCluster(2), 2, func(r *Rank) {
		// Rank 1's copy is large, so its Send is still running when
		// rank 0's empty copy lands on it.
		bytes := 0
		if r.ID() == 1 {
			bytes = 1 << 20
		}
		r.Bcast(r.ID(), nil, bytes)
		switch r.ID() {
		case 0:
			if !r.comm.ranks[1].inColl {
				t.Error("rank 1 left the broadcast before rank 0's copy arrived")
			}
		case 1:
			if len(r.pending) != 0 {
				t.Errorf("rank 1 left the broadcast with %d dead copies pending", len(r.pending))
			}
		}
	})
	if comm.Unmatched != 2 {
		t.Errorf("Unmatched = %d, want 2", comm.Unmatched)
	}
}

// An application message nobody receives is never retired, however
// many collectives run after it.
func TestUnreceivedAppMessageNeverRetired(t *testing.T) {
	comm, _ := RunStats(testCluster(2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, "kept", 8)
		}
		r.Barrier()
		r.AllreduceF64(1, func(a, b float64) float64 { return a + b })
		if r.ID() == 1 {
			if len(r.pending) != 1 || r.pending[0].Tag != 5 {
				t.Errorf("rank 1 pending = %v, want the tag-5 message", r.pending)
			}
		}
	})
	if comm.Unmatched != 0 {
		t.Errorf("Unmatched = %d, want 0", comm.Unmatched)
	}
}

// The hpl-grid shape: a P x Q grid where each step broadcasts over the
// whole communicator twice, with a root that differs per process row
// and per process column. Every rank keeps the first copy and ignores
// the rest; without retirement they piled up in pending (1,730 per
// rank at 96 nodes). With it, no rank's queue ever exceeds the
// communicator size.
func TestGridShapedBroadcastsKeepPendingBounded(t *testing.T) {
	const p, q, steps = 8, 8, 64
	n := p * q
	maxPending := 0
	comm, _ := RunStats(testCluster(n), n, func(r *Rank) {
		row, col := r.ID()/q, r.ID()%q
		for k := 0; k < steps; k++ {
			if col == k%q {
				r.Compute(1e-4) // panel factorisation in the owner column
			}
			r.Bcast(row*q+k%q, nil, 4096)
			r.Bcast((k%p)*q+col, nil, 4096)
			r.Compute(1e-3)
			for _, o := range r.comm.ranks {
				maxPending = max(maxPending, len(o.pending))
			}
		}
	})
	if maxPending > n {
		t.Errorf("max len(pending) = %d, want <= %d", maxPending, n)
	}
	if comm.Unmatched == 0 {
		t.Error("Unmatched = 0: the per-row roots should leave copies unreceived")
	}
}
