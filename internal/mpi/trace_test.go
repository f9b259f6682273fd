package mpi

import (
	"math"
	"testing"

	"mobilehpc/internal/trace"
)

func TestRunTracedRecordsStates(t *testing.T) {
	cl := testCluster(2)
	tr, _, end := RunTraced(cl, 2, func(r *Rank) {
		r.Compute(0.5)
		if r.ID() == 0 {
			r.Send(1, 1, nil, 1000)
		} else {
			r.Recv(0, 1)
		}
		r.Barrier()
	})
	if end <= 0.5 {
		t.Fatalf("end = %v", end)
	}
	ps := tr.Profiles()
	if len(ps) != 2 {
		t.Fatalf("profiles: %d", len(ps))
	}
	for i, p := range ps {
		if math.Abs(p.ByState[trace.Compute]-0.5) > 1e-9 {
			t.Errorf("rank %d compute = %v, want 0.5", i, p.ByState[trace.Compute])
		}
		if p.ByState[trace.Collective] <= 0 {
			t.Errorf("rank %d: barrier not recorded as collective", i)
		}
	}
	if ps[0].ByState[trace.Send] <= 0 {
		t.Error("sender has no send time")
	}
	if ps[1].ByState[trace.Recv] <= 0 {
		t.Error("receiver has no recv time")
	}
}

func TestTracedCollectiveSuppressesInnerMessages(t *testing.T) {
	// A Bcast uses Send/Recv internally but must appear only as one
	// Collective interval per rank.
	cl := testCluster(4)
	tr, _, _ := RunTraced(cl, 4, func(r *Rank) {
		r.Bcast(0, 1, 8)
	})
	for _, p := range tr.Profiles() {
		if p.ByState[trace.Send] != 0 || p.ByState[trace.Recv] != 0 {
			t.Errorf("rank %d: collective leaked send/recv intervals: %+v", p.Rank, p)
		}
		if p.ByState[trace.Collective] < 0 {
			t.Errorf("rank %d: no collective time", p.Rank)
		}
	}
}

func TestTracedWaitSeparatedFromRecv(t *testing.T) {
	// A late sender shows up as Wait on the receiver, not Recv.
	cl := testCluster(2)
	tr, _, _ := RunTraced(cl, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(1.0)
			r.Send(1, 1, nil, 0)
		} else {
			r.Recv(0, 1)
		}
	})
	p := tr.Profiles()[1]
	if p.ByState[trace.Wait] < 0.9 {
		t.Errorf("receiver wait = %v, want ~1.0 (blocked on late sender)", p.ByState[trace.Wait])
	}
	if p.ByState[trace.Recv] > 0.01 {
		t.Errorf("receiver recv cost = %v, should be protocol-scale", p.ByState[trace.Recv])
	}
}

func TestUntracedRunHasNoTracer(t *testing.T) {
	cl := testCluster(2)
	comm, _ := RunStats(cl, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, nil, 10)
		} else {
			r.Recv(0, 1)
		}
	})
	if comm.tracer != nil {
		t.Error("RunStats must not trace")
	}
}
