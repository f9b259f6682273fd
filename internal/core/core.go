// Package core is the top-level API of mobilehpc: the paper's primary
// contribution is the *evaluation methodology* — putting mobile SoCs
// through an HPC qualification (micro-kernels, STREAM, interconnect
// ping-pong, cluster-scale production applications) and judging them
// against an HPC-class incumbent — and this package exposes that
// methodology as a small set of entry points over the underlying
// substrates (soc, perf, power, kernels, stream, interconnect, mpi,
// cluster, apps, trend, metrics, harness).
//
// Examples and the mhpc CLI consume only this package plus the
// experiment registry in internal/harness.
package core

import (
	"mobilehpc/internal/apps/hpl"
	"mobilehpc/internal/cluster"
	"mobilehpc/internal/harness"
	"mobilehpc/internal/kernels"
	"mobilehpc/internal/metrics"
	"mobilehpc/internal/perf"
	"mobilehpc/internal/soc"
)

// SoCEvaluation is the single-platform verdict of §3: kernel-suite
// mean time and energy at a chosen operating point, with speedup and
// relative energy against the paper's baseline (Tegra 2 at 1 GHz,
// serial).
type SoCEvaluation struct {
	Platform   *soc.Platform
	FGHz       float64
	Threads    int
	MeanTime   float64 // seconds per suite iteration
	MeanEnergy float64 // joules per suite iteration
	Speedup    float64 // vs Tegra2 @ 1 GHz serial
	RelEnergy  float64 // vs Tegra2 @ 1 GHz serial
}

// EvaluateSoC runs the Table 2 micro-kernel suite (as modelled
// profiles) on platform p at fGHz with the given thread count
// (0 = all cores).
func EvaluateSoC(p *soc.Platform, fGHz float64, threads int) SoCEvaluation {
	if threads == 0 {
		threads = p.Cores
	}
	profs := kernels.Profiles()
	base := perf.Suite(soc.Tegra2(), 1.0, profs, 1)
	s := perf.Suite(p, fGHz, profs, threads)
	return SoCEvaluation{
		Platform: p, FGHz: fGHz, Threads: threads,
		MeanTime: s.MeanTime, MeanEnergy: s.MeanEnergy,
		Speedup:   base.MeanTime / s.MeanTime,
		RelEnergy: s.MeanEnergy / base.MeanEnergy,
	}
}

// EvaluateAll returns the §3 evaluation of every catalogue platform at
// its maximum frequency, serial and all-cores.
func EvaluateAll() []SoCEvaluation {
	var out []SoCEvaluation
	for _, p := range soc.All() {
		out = append(out, EvaluateSoC(p, p.MaxFreq(), 1))
		out = append(out, EvaluateSoC(p, p.MaxFreq(), p.Cores))
	}
	return out
}

// TibidaboHPL runs the §4 weak-scaled HPL on an n-node Tibidabo slice
// and reports the Green500 metric alongside.
func TibidaboHPL(nodes, matrixN int) (hpl.Result, float64) {
	cl := cluster.Tibidabo(nodes)
	r := hpl.Run(cl, nodes, hpl.Config{N: matrixN, RealN: 64})
	return r, metrics.MFLOPSPerWatt(r.GFLOPS, cl.PowerW(2))
}

// Experiments exposes the per-table/figure registry.
func Experiments() []harness.Experiment { return harness.Experiments() }
