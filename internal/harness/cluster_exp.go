package harness

import (
	"fmt"
	"math"

	"sync"

	"mobilehpc/internal/apps/hpl"
	"mobilehpc/internal/apps/hydro"
	"mobilehpc/internal/apps/md"
	"mobilehpc/internal/apps/pepc"
	"mobilehpc/internal/apps/specfem"
	"mobilehpc/internal/cluster"
	"mobilehpc/internal/interconnect"
	"mobilehpc/internal/metrics"
	"mobilehpc/internal/soc"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Scalability of HPC applications on Tibidabo",
		Paper: "Figure 6",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Interconnect latency and effective bandwidth",
		Paper: "Figure 7",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "green500",
		Title: "HPL weak scaling, power, and MFLOPS/W on Tibidabo",
		Paper: "§4 (97 GFLOPS on 96 nodes, 51% efficiency, 120 MFLOPS/W)",
		Run:   runGreen500,
	})
	register(Experiment{
		ID:    "latpenalty",
		Title: "Execution-time penalty of interconnect latency",
		Paper: "§4.1 (after Saravanan et al. [36])",
		Run:   runLatPenalty,
	})
}

// fig6Nodes returns the node counts swept by the Figure 6 experiment.
// The full sweep ends at 192 — the complete Tibidabo machine, beyond
// the 96 nodes the paper could measure reliably.
func fig6Nodes(quick bool) []int {
	if quick {
		return []int{4, 8, 16}
	}
	return []int{4, 8, 16, 32, 64, 96, 192}
}

func runFig6(o Options) *Table {
	t := &Table{
		ID: "fig6", Title: "Application speedup on Tibidabo (Tegra2 @ 1 GHz, MPI/TCP)",
		Paper:   "Figure 6",
		Columns: []string{"nodes", "HPL (weak)", "SPECFEM3D", "HYDRO", "GROMACS", "PEPC"},
	}
	nodes := fig6Nodes(o.Quick)
	steps := 20
	if o.Quick {
		steps = 6
	}

	// Strong-scaling baselines at the smallest node count each app runs.
	specCfg := func() specfem.Config {
		return specfem.Config{Elements: 200000, Steps: steps, RealElements: 16}
	}
	hydroCfg := func() hydro.Config {
		return hydro.Config{Grid: 3072, Steps: steps, RealGrid: 16}
	}
	mdCfg := func() md.Config {
		return md.Config{Particles: 500000, Steps: steps, RealParticles: 64}
	}
	pepcCfg := func() pepc.Config {
		return pepc.Config{Particles: 1000000, Steps: max(steps/4, 1), RealParticles: 128}
	}

	base := nodes[0]
	specBase := specfem.Run(cluster.Tibidabo(base), base, specCfg()).Elapsed
	hydroBase := hydro.Run(cluster.Tibidabo(base), base, hydroCfg()).Elapsed
	mdBase := md.Run(cluster.Tibidabo(base), base, mdCfg()).Elapsed

	// PEPC cannot run below its memory floor; its speedup is plotted
	// assuming linear scaling at the smallest feasible count (§4).
	pepcMin := pepc.MinNodes(pepcCfg().Particles, soc.Tegra2().Mem.DRAMMB)
	var pepcBase float64
	pepcBaseNodes := 0
	for _, n := range nodes {
		if n >= pepcMin {
			r, err := pepc.Run(cluster.Tibidabo(n), n, pepcCfg())
			if err == nil {
				pepcBase = r.Elapsed
				pepcBaseNodes = n
			}
			break
		}
	}

	// Weak-scaling HPL: efficiency-derived "speedup" = eff * nodes,
	// normalised like the strong apps.
	eff1 := hplEff1()
	hplAt := func(n int) float64 {
		N := int(8192 * math.Sqrt(float64(n)))
		r := hpl.Run(cluster.Tibidabo(n), n, hpl.Config{N: N, RealN: 64})
		return r.Efficiency * float64(n) / eff1
	}

	// One sub-run per node count, each on its own clusters (and thus
	// its own sim engines); merged in node order so the table is
	// byte-identical at any -j.
	for _, cells := range parmapObs("subrun",
		func(i int) string { return fmt.Sprintf("fig6/n=%d", nodes[i]) },
		o.Jobs, len(nodes), func(i int) []string {
			n := nodes[i]
			cells := []string{fmt.Sprintf("%d", n)}
			cells = append(cells, fmt.Sprintf("%.1f", hplAt(n)))
			s := specfem.Run(cluster.Tibidabo(n), n, specCfg()).Elapsed
			cells = append(cells, fmt.Sprintf("%.1f", specBase/s*float64(base)))
			h := hydro.Run(cluster.Tibidabo(n), n, hydroCfg()).Elapsed
			cells = append(cells, fmt.Sprintf("%.1f", hydroBase/h*float64(base)))
			m := md.Run(cluster.Tibidabo(n), n, mdCfg()).Elapsed
			cells = append(cells, fmt.Sprintf("%.1f", mdBase/m*float64(base)))
			if n < pepcMin || pepcBaseNodes == 0 {
				cells = append(cells, "-")
			} else {
				r, err := pepc.Run(cluster.Tibidabo(n), n, pepcCfg())
				if err != nil {
					cells = append(cells, "-")
				} else {
					cells = append(cells, fmt.Sprintf("%.1f",
						pepcBase/r.Elapsed*float64(pepcBaseNodes)))
				}
			}
			return cells
		}) {
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("strong-scaling speedups assume linear scaling at %d nodes", base),
		fmt.Sprintf("PEPC reference input requires >= %d nodes (paper: 24)", pepcMin),
		"HPL column is weak-scaled: efficiency x nodes, relative to single-node efficiency")
	return t
}

// hplEff1 returns the single-node HPL efficiency used to normalise the
// weak scaling column (computed once on first use).
var hplEff1 = sync.OnceValue(func() float64 {
	return unbound(func() float64 {
		return hpl.Run(cluster.Tibidabo(1), 1, hpl.Config{N: 8192, RealN: 64}).Efficiency
	})
})

// unbound runs fn on a fresh goroutine, where no abort flag is bound,
// and waits for it. Process-lifetime once-values compute through it: a
// run cancelled while it is the first caller must not leave the abort
// panic cached in the once-value for every later run.
func unbound[T any](fn func() T) T {
	ch := make(chan T, 1)
	go func() { ch <- fn() }()
	return <-ch
}

func runFig7(Options) *Table {
	t := &Table{
		ID: "fig7", Title: "Ping-pong latency and effective bandwidth (1GbE)",
		Paper:   "Figure 7",
		Columns: []string{"configuration", "latency 0B (us)", "latency 64B (us)", "BW 64KiB (MB/s)", "BW 16MiB (MB/s)"},
	}
	type cfg struct {
		name string
		e    interconnect.Endpoint
	}
	t2 := soc.Tegra2()
	ex := soc.Exynos5250()
	cases := []cfg{
		{"Tegra2 TCP/IP 1.0GHz", interconnect.Endpoint{Platform: t2, FGHz: 1.0, Proto: interconnect.TCPIP()}},
		{"Tegra2 Open-MX 1.0GHz", interconnect.Endpoint{Platform: t2, FGHz: 1.0, Proto: interconnect.OpenMX()}},
		{"Exynos5 TCP/IP 1.0GHz", interconnect.Endpoint{Platform: ex, FGHz: 1.0, Proto: interconnect.TCPIP()}},
		{"Exynos5 Open-MX 1.0GHz", interconnect.Endpoint{Platform: ex, FGHz: 1.0, Proto: interconnect.OpenMX()}},
		{"Exynos5 TCP/IP 1.4GHz", interconnect.Endpoint{Platform: ex, FGHz: 1.4, Proto: interconnect.TCPIP()}},
		{"Exynos5 Open-MX 1.4GHz", interconnect.Endpoint{Platform: ex, FGHz: 1.4, Proto: interconnect.OpenMX()}},
	}
	for _, c := range cases {
		t.AddRowf("%s|%.1f|%.1f|%.1f|%.1f",
			c.name,
			interconnect.OneWayLatency(c.e, 0, 1.0)*1e6,
			interconnect.OneWayLatency(c.e, 64, 1.0)*1e6,
			interconnect.EffectiveBandwidth(c.e, 64<<10, 1.0),
			interconnect.EffectiveBandwidth(c.e, 16<<20, 1.0))
	}
	t.Notes = append(t.Notes,
		"paper: Tegra2 ~100us TCP / 65us Open-MX; Exynos5 ~125/93us at 1.0GHz, ~10% lower at 1.4GHz",
		"paper bandwidth: Tegra2 65 -> 117 MB/s with Open-MX; Exynos5 63 -> 69 (75 at 1.4GHz)")
	return t
}

func runGreen500(o Options) *Table {
	t := &Table{
		ID: "green500", Title: "Tibidabo HPL: GFLOPS, efficiency, power, MFLOPS/W",
		Paper:   "§4",
		Columns: []string{"nodes", "N", "GFLOPS", "efficiency", "power (W)", "MFLOPS/W"},
	}
	nodes := []int{16, 48, 96}
	if o.Quick {
		nodes = []int{4, 16}
	}
	for _, row := range parmapObs("subrun",
		func(i int) string { return fmt.Sprintf("green500/n=%d", nodes[i]) },
		o.Jobs, len(nodes), func(i int) []string {
			n := nodes[i]
			cl := cluster.Tibidabo(n)
			N := int(8192 * math.Sqrt(float64(n)))
			r := hpl.Run(cl, n, hpl.Config{N: N, RealN: 64})
			w := cl.PowerW(2)
			return []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", N),
				fmt.Sprintf("%.1f", r.GFLOPS), fmt.Sprintf("%.0f%%", r.Efficiency*100),
				fmt.Sprintf("%.0f", w), fmt.Sprintf("%.0f", metrics.MFLOPSPerWatt(r.GFLOPS, w))}
		}) {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: 97 GFLOPS on 96 nodes, 51% efficiency, 120 MFLOPS/W",
		"competitive with Opteron 6174 / Xeon E5660 clusters; ~19x below BlueGene/Q")
	return t
}

func runLatPenalty(Options) *Table {
	t := &Table{
		ID: "latpenalty", Title: "First-order execution-time penalty of communication latency",
		Paper:   "§4.1",
		Columns: []string{"CPU class", "latency (us)", "penalty"},
	}
	for _, c := range []struct {
		name string
		rel  float64
		lats []float64
	}{
		{"Sandy Bridge-class", 1.0, []float64{65, 100}},
		{"Arndale-class (2x slower)", 0.5, []float64{65, 100}},
	} {
		for _, l := range c.lats {
			t.AddRowf("%s|%.0f|+%.0f%%", c.name, l, metrics.LatencyPenaltyPct(l, c.rel))
		}
	}
	t.Notes = append(t.Notes,
		"paper: 100us -> +90% and 65us -> +60% for Sandy Bridge-class; ~50%/40% for Arndale-class")
	return t
}
