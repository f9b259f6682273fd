package mpi

import (
	"fmt"
	"testing"
)

// Tags from collBase up belong to the collectives, and a
// collective-tagged message for a collective the receiver has left is
// retired unreceived. An application tag in that range would be
// retired silently, so every point-to-point entry point refuses one
// outside a collective.
func TestReservedTagOutsideCollectivePanics(t *testing.T) {
	want := fmt.Sprintf("mpi: tag %d is reserved for collectives (application tags must be below %d)", collBase, collBase)
	cases := map[string]func(r *Rank){
		"Send":  func(r *Rank) { r.Send(1, collBase, nil, 8) },
		"Isend": func(r *Rank) { r.Isend(1, collBase, nil, 8) },
		"Recv":  func(r *Rank) { r.Recv(1, collBase) },
		"Irecv": func(r *Rank) { r.Irecv(AnySource, collBase) },
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				got := recover()
				if got != fmt.Sprintf("sim: process %q panicked: %s", "rank0", want) {
					t.Errorf("panic = %v, want the reserved-tag message %q", got, want)
				}
			}()
			Run(testCluster(2), 2, func(r *Rank) {
				if r.ID() == 0 {
					bad(r)
				}
			})
		})
	}
}

// The largest application tag is still accepted.
func TestTagBelowReservedRangeAccepted(t *testing.T) {
	var got int
	Run(testCluster(2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, collBase-1, 5, 8)
		} else {
			got = r.Recv(0, collBase-1).Data.(int)
		}
	})
	if got != 5 {
		t.Errorf("received %d, want 5", got)
	}
}

// A step index of collSubs or more (or below zero) would alias a
// neighbouring collective's sequence number, and with it the
// retirement rule's notion of which collective a message belongs to.
func TestCollTagStepOutOfRangePanics(t *testing.T) {
	for _, sub := range []int{collSubs, collSubs + 1, -1} {
		func() {
			want := fmt.Sprintf("mpi: collective step %d out of range [0, %d)", sub, collSubs)
			defer func() {
				if got := recover(); got != want {
					t.Errorf("collTag(%d) panic = %v, want %q", sub, got, want)
				}
			}()
			r := &Rank{collSeq: 3}
			r.collTag(sub)
		}()
	}
	r := &Rank{collSeq: 3}
	if got, want := r.collTag(collSubs-1), collBase+4*collSubs-1; got != want {
		t.Errorf("collTag(%d) = %d, want %d", collSubs-1, got, want)
	}
}
