package mpi

import (
	"math"
	"testing"
)

func TestBcastLinearDelivers(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		cl := testCluster(n)
		got := make([]int, n)
		Run(cl, n, func(r *Rank) {
			var v any
			if r.ID() == 0 {
				v = 31337
			}
			got[r.ID()] = r.BcastLinear(0, v, 8).(int)
		})
		for i, v := range got {
			if v != 31337 {
				t.Fatalf("n=%d rank %d got %d", n, i, v)
			}
		}
	}
}

func TestBinomialBeatsLinearBcastAtScale(t *testing.T) {
	// The ablation's point: O(log P) critical path wins at scale.
	elapsed := func(linear bool) float64 {
		cl := testCluster(16)
		return Run(cl, 16, func(r *Rank) {
			var v any
			if r.ID() == 0 {
				v = 1
			}
			if linear {
				r.BcastLinear(0, v, 1024)
			} else {
				r.Bcast(0, v, 1024)
			}
		})
	}
	lin, tree := elapsed(true), elapsed(false)
	if tree >= lin {
		t.Errorf("binomial bcast (%.6fs) not faster than linear (%.6fs) at 16 ranks", tree, lin)
	}
}

func TestAllreduceRingMatchesBinomial(t *testing.T) {
	add := func(a, b float64) float64 { return a + b }
	for _, n := range []int{1, 2, 4, 7} {
		cl := testCluster(n)
		want := float64(n*(n+1)) / 2
		vals := make([]float64, n)
		Run(cl, n, func(r *Rank) {
			vals[r.ID()] = r.AllreduceRingF64(float64(r.ID()+1), add)
		})
		for i, v := range vals {
			if math.Abs(v-want) > 1e-12 {
				t.Fatalf("n=%d rank %d: ring allreduce %v, want %v", n, i, v, want)
			}
		}
	}
}

func TestTreeAllreduceBeatsRingForScalars(t *testing.T) {
	add := func(a, b float64) float64 { return a + b }
	elapsed := func(ring bool) float64 {
		cl := testCluster(16)
		return Run(cl, 16, func(r *Rank) {
			if ring {
				r.AllreduceRingF64(1, add)
			} else {
				r.AllreduceF64(1, add)
			}
		})
	}
	ring, tree := elapsed(true), elapsed(false)
	if tree >= ring {
		t.Errorf("tree allreduce (%.6fs) not faster than ring (%.6fs) for 8-byte payloads", tree, ring)
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		cl := testCluster(n)
		ok := true
		Run(cl, n, func(r *Rank) {
			out := r.Allgather(r.ID()*11, 8)
			if len(out) != n {
				ok = false
				return
			}
			for i, v := range out {
				if v.(int) != i*11 {
					ok = false
				}
			}
		})
		if !ok {
			t.Errorf("n=%d: allgather misassembled", n)
		}
	}
}

func TestAllgatherTracedAsOneCollective(t *testing.T) {
	cl := testCluster(4)
	tr, _, _ := RunTraced(cl, 4, func(r *Rank) {
		r.Allgather(r.ID(), 64)
	})
	for _, p := range tr.Profiles() {
		if p.ByState[1] != 0 || p.ByState[2] != 0 { // Send, Recv indices
			t.Errorf("rank %d leaked point-to-point intervals", p.Rank)
		}
	}
}
