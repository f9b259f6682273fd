package mobilehpc

// Ablation benchmarks for runtime design choices beyond the paper's
// own tables and figures: collective algorithms, communication
// overlap, and GEMM autotuning.

import (
	"testing"

	"mobilehpc/internal/cluster"
	"mobilehpc/internal/linalg"
	"mobilehpc/internal/mpi"
)

// Collective-algorithm ablation: binomial vs linear broadcast and tree
// vs ring allreduce on 16 Tibidabo nodes.
func BenchmarkCollectiveAlgorithms(b *testing.B) {
	mk := func() *cluster.Cluster { return cluster.Tibidabo(16) }
	cases := []struct {
		name string
		prog func(r *mpi.Rank)
	}{
		{"bcast-binomial", func(r *mpi.Rank) {
			var v any
			if r.ID() == 0 {
				v = 1
			}
			r.Bcast(0, v, 64<<10)
		}},
		{"bcast-linear", func(r *mpi.Rank) {
			var v any
			if r.ID() == 0 {
				v = 1
			}
			r.BcastLinear(0, v, 64<<10)
		}},
		{"allreduce-tree", func(r *mpi.Rank) {
			r.AllreduceF64(1, func(a, c float64) float64 { return a + c })
		}},
		{"allreduce-ring", func(r *mpi.Rank) {
			r.AllreduceRingF64(1, func(a, c float64) float64 { return a + c })
		}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var end float64
			for i := 0; i < b.N; i++ {
				end = mpi.Run(mk(), 16, c.prog)
			}
			b.ReportMetric(end*1e6, "sim_us")
		})
	}
}

// Blocking vs nonblocking halo exchange on the modelled fabric.
func BenchmarkOverlapAblation(b *testing.B) {
	const m = 4 << 20
	run := func(overlap bool) float64 {
		cl := cluster.Tibidabo(2)
		return mpi.Run(cl, 2, func(r *mpi.Rank) {
			if r.ID() == 0 {
				if overlap {
					req := r.Isend(1, 1, nil, m)
					r.Compute(0.05)
					req.Wait()
				} else {
					r.Send(1, 1, nil, m)
					r.Compute(0.05)
				}
			} else {
				r.Recv(0, 1)
			}
		})
	}
	for _, c := range []struct {
		name    string
		overlap bool
	}{{"blocking", false}, {"isend-overlap", true}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var end float64
			for i := 0; i < b.N; i++ {
				end = run(c.overlap)
			}
			b.ReportMetric(end*1e3, "sim_ms")
		})
	}
}

// Host-side autotuning probe (real wall-clock measurement by design).
func BenchmarkGemmAutotune(b *testing.B) {
	if testing.Short() {
		b.Skip("wall-clock probe")
	}
	var blk int
	for i := 0; i < b.N; i++ {
		blk = linalg.TuneGemm(128, 1).BlockSize
	}
	b.ReportMetric(float64(blk), "chosen_block")
}
