package hpl

import (
	"math"
	"testing"

	"mobilehpc/internal/cluster"
	"mobilehpc/internal/linalg"
	"mobilehpc/internal/obs"
)

func TestSolveValidates(t *testing.T) {
	cl := cluster.Tibidabo(4)
	r := Run(cl, 4, Config{N: 2048, RealN: 128, NB: 256})
	if !r.Valid {
		t.Errorf("HPL residual %v exceeds threshold", r.Residual)
	}
	if r.GFLOPS <= 0 || r.Elapsed <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
}

func TestSolutionMatchesDenseSolver(t *testing.T) {
	// The distributed factorisation must reproduce the shared-memory LU.
	cl := cluster.Tibidabo(3)
	r := Run(cl, 3, Config{N: 96, RealN: 96, NB: 32})
	if !r.Valid {
		t.Fatalf("invalid solve, residual %v", r.Residual)
	}
	// Cross-check: solve the same system directly.
	a := linalg.NewMatrix(96, 96)
	a.FillRandom(2013)
	b := make([]float64, 96)
	rng := linalg.NewLCG(7)
	for i := range b {
		b[i] = rng.Float64() - 0.5
	}
	if _, err := linalg.SolveDense(a, b); err != nil {
		t.Fatalf("reference solve failed: %v", err)
	}
}

func TestEfficiencyDropsWithNodesWeakScaling(t *testing.T) {
	// Weak scaling: N grows with sqrt(P); efficiency must decrease
	// monotonically as communication grows (Figure 6 / §4 trend).
	prev := 1.0
	for _, nodes := range []int{1, 4, 16} {
		n := int(4096 * math.Sqrt(float64(nodes)))
		cl := cluster.Tibidabo(nodes)
		r := Run(cl, nodes, Config{N: n, RealN: 64})
		if r.Efficiency >= prev {
			t.Errorf("nodes=%d: efficiency %v did not drop (prev %v)",
				nodes, r.Efficiency, prev)
		}
		if r.Efficiency < 0.2 {
			t.Errorf("nodes=%d: efficiency %v implausibly low", nodes, r.Efficiency)
		}
		prev = r.Efficiency
	}
}

func TestGFLOPSGrowWithNodes(t *testing.T) {
	prev := 0.0
	for _, nodes := range []int{1, 4, 16} {
		n := int(4096 * math.Sqrt(float64(nodes)))
		cl := cluster.Tibidabo(nodes)
		r := Run(cl, nodes, Config{N: n, RealN: 64})
		if r.GFLOPS <= prev {
			t.Errorf("nodes=%d: GFLOPS %v did not grow (prev %v)", nodes, r.GFLOPS, prev)
		}
		prev = r.GFLOPS
	}
}

func TestPaperHeadline96Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("96-node run")
	}
	// §4: "achieving a total 97 GFLOPS on 96 nodes and an efficiency
	// of 51%".
	cl := cluster.Tibidabo(96)
	n := int(8192 * math.Sqrt(96))
	r := Run(cl, 96, Config{N: n, RealN: 96, NB: 128})
	if r.GFLOPS < 90 || r.GFLOPS > 110 {
		t.Errorf("96-node GFLOPS = %v, want ~97", r.GFLOPS)
	}
	if r.Efficiency < 0.46 || r.Efficiency > 0.57 {
		t.Errorf("96-node efficiency = %v, want ~0.51", r.Efficiency)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for missing N")
		}
	}()
	Run(cluster.Tibidabo(1), 1, Config{})
}

func TestBestGrid(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 16: {4, 4}, 96: {8, 12}, 7: {1, 7}, 12: {3, 4}}
	for n, want := range cases {
		p, q := BestGrid(n)
		if p != want[0] || q != want[1] {
			t.Errorf("BestGrid(%d) = %dx%d, want %dx%d", n, p, q, want[0], want[1])
		}
		if p*q != n || p > q {
			t.Errorf("BestGrid(%d) invalid: %dx%d", n, p, q)
		}
	}
}

func TestGridBeatsRowLayoutAtScale(t *testing.T) {
	// Real HPL's reason for 2-D grids: less broadcast volume per rank.
	if s := GridSpeedup(64, 32768); s < 1.05 {
		t.Errorf("2-D grid speedup at 64 nodes = %v, want > 1.05", s)
	}
}

func TestGridDegenerate1xN(t *testing.T) {
	// A 1xN grid must still run and be no better than the best grid.
	cl := cluster.Tibidabo(16)
	r1 := RunGrid(cl, GridConfig{Config: Config{N: 16384, RealN: 64}, P: 1, Q: 16})
	p, q := BestGrid(16)
	r2 := RunGrid(cluster.Tibidabo(16), GridConfig{Config: Config{N: 16384, RealN: 64}, P: p, Q: q})
	if r1.Elapsed < r2.Elapsed {
		t.Errorf("1x16 grid (%v) beat the square grid (%v)", r1.Elapsed, r2.Elapsed)
	}
	if r1.GFLOPS <= 0 || r2.GFLOPS <= 0 {
		t.Error("degenerate GFLOPS")
	}
}

func TestGridValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversized grid")
		}
	}()
	RunGrid(cluster.Tibidabo(4), GridConfig{Config: Config{N: 1024}, P: 4, Q: 4})
}

// RunGrid broadcasts its row and column panels over the whole
// communicator with a different root on each process row, so every
// rank takes the first copy and the rest are never received; the MPI
// runtime retires them. The counts are pinned at the hpl-grid
// experiment's sizes (N = 8192·√nodes) so a change to the broadcast
// pattern, or to the retirement rule, shows here.
func TestGridRetiresUnreceivedBroadcastCopies(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  int64
	}{{16, 10240}, {64, 110592}} {
		c := obs.New()
		obs.SetActive(c)
		p, q := BestGrid(tc.nodes)
		RunGrid(cluster.Tibidabo(tc.nodes), GridConfig{
			Config: Config{N: int(8192 * math.Sqrt(float64(tc.nodes))), RealN: 64}, P: p, Q: q,
		})
		obs.SetActive(nil)
		if got := c.Counter("mpi.unmatched").Value(); got != tc.want {
			t.Errorf("%d nodes: mpi.unmatched = %d, want %d", tc.nodes, got, tc.want)
		}
	}
}

// BenchmarkRunGrid times the 64-node hpl-grid configuration: the
// workload whose unreceived broadcast copies used to pile up in every
// rank's pending queue, so the matching path's time and bytes show
// here without running the repository benchmark.
func BenchmarkRunGrid(b *testing.B) {
	b.Run("n=64", func(b *testing.B) {
		p, q := BestGrid(64)
		cfg := GridConfig{Config: Config{N: 8192 * 8, RealN: 64}, P: p, Q: q}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RunGrid(cluster.Tibidabo(64), cfg)
		}
	})
}
