package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mobilehpc/internal/accel"
	"mobilehpc/internal/kernels"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/perf"
	"mobilehpc/internal/reliability"
	"mobilehpc/internal/soc"
)

func init() {
	register(Experiment{
		ID:    "microserver",
		Title: "ARM server SoCs (§2) vs the mobile parts",
		Paper: "§2 related work / §6.3",
		Run:   runMicroserver,
	})
	register(Experiment{
		ID:    "accel",
		Title: "GPU offload what-if: Mali/CARMA/Logan",
		Paper: "§3, §5 (experimental CUDA/OpenCL), §7",
		Run:   runAccel,
	})
	register(Experiment{
		ID:    "green500-context",
		Title: "Tibidabo in the June 2013 Green500 landscape",
		Paper: "§4 comparisons",
		Run:   runGreen500Context,
	})
	register(Experiment{
		ID:    "stability",
		Title: "Job survival on unstable PCIe + no-ECC memory",
		Paper: "§6.1 / §6.3",
		Run:   runStability,
	})
}

func runMicroserver(Options) *Table {
	t := &Table{
		ID: "microserver", Title: "Server-SoC path vs mobile path",
		Paper:   "§2 / §6.3",
		Columns: []string{"platform", "class", "FP64 peak (GF)", "ECC", "10GbE", "suite speedup", "J/iteration", "price ($)"},
	}
	profs := kernels.Profiles()
	base := perf.Suite(soc.Tegra2(), 1.0, profs, 1)
	rows := []struct {
		p     *soc.Platform
		class string
	}{
		{soc.Tegra2(), "mobile"},
		{soc.Exynos5250(), "mobile"},
		{soc.CalxedaECX1000(), "micro-server"},
		{soc.KeyStoneII(), "micro-server"},
		{soc.XGene(), "micro-server"},
	}
	for _, r := range rows {
		s := perf.Suite(r.p, r.p.MaxFreq(), profs, r.p.Cores)
		tenGbE := 0
		for _, m := range r.p.EthMbps {
			if m >= 10000 {
				tenGbE++
			}
		}
		t.AddRowf("%s|%s|%.1f|%v|%d|%.2f|%.2f|%.0f",
			r.p.Name, r.class, r.p.PeakGFLOPSMax(), r.p.Mem.ECCCapable, tenGbE,
			base.MeanTime/s.MeanTime, s.MeanEnergy, r.p.PriceUSD)
	}
	t.Notes = append(t.Notes,
		"the server SoCs carry the §6.3 wish list (ECC, integrated 10GbE) at 5-20x the price",
		"§2: unless they win volume, they risk the GreenDestiny/MegaProto fate")
	return t
}

func runAccel(Options) *Table {
	t := &Table{
		ID: "accel", Title: "GPU offload speedup for dmmm (vs all host cores)",
		Paper:   "§3/§5/§7",
		Columns: []string{"device", "API", "driver", "FP32 speedup", "FP64 speedup", "crashes/1k launches"},
	}
	var dmmm perf.Profile
	for _, k := range kernels.Suite() {
		if k.Tag() == "dmmm" {
			dmmm = k.Profile()
		}
	}
	host := soc.Exynos5250()
	devices := []*accel.Device{accel.ULPGeForce(), accel.MaliT604(), accel.CarmaCUDA(), accel.Tegra5Logan()}
	for _, d := range devices {
		if !d.Programmable {
			t.AddRow(d.Name, "-", "graphics only", "-", "-", "-")
			continue
		}
		s32, err := accel.Speedup(host, d, dmmm, "fp32", 8)
		if err != nil {
			t.AddRow(d.Name, d.API, "error", err.Error(), "-", "-")
			continue
		}
		s64, _ := accel.Speedup(host, d, dmmm, "fp64", 8)
		driver := "experimental"
		if d.DriverMature {
			driver = "production"
		}
		t.AddRowf("%s|%s|%s|%.2fx|%.2fx|%.1f",
			d.Name, d.API, driver, s32, s64, d.CrashPer1kLaunches)
	}
	t.Notes = append(t.Notes,
		"the paper excludes GPUs (§3): not programmable or no optimized driver — the model quantifies what that cost",
		"FP64 offload barely pays on mobile GPUs of the era; FP32 (with mixed-precision refinement) does")
	return t
}

func runGreen500Context(Options) *Table {
	t := &Table{
		ID: "green500-context", Title: "Tibidabo vs June 2013 Green500 reference points",
		Paper:   "§4",
		Columns: []string{"system", "MFLOPS/W", "vs Tibidabo"},
	}
	tibidabo := 120.0
	refs := []struct {
		name string
		mpw  float64
	}{
		{"Tibidabo (this work)", tibidabo},
		{"AMD Opteron 6174 cluster", 120},
		{"Intel Xeon E5660 cluster", 135},
		{"BlueGene/Q (best homogeneous)", 2300},
		{"Eurora (Xeon E5-2687W + K20, #1)", 3210},
	}
	for _, r := range refs {
		t.AddRowf("%s|%.0f|%.1fx", r.name, r.mpw, r.mpw/tibidabo)
	}
	t.AddRowf("measured reproduction|%.0f|%.2fx", measuredMPW(), measuredMPW()/tibidabo)
	t.Notes = append(t.Notes,
		"paper: competitive with Opteron/Xeon clusters, ~19x below BlueGene/Q, ~27x below the GPU-accelerated #1",
		"reasons (§4): developer kits, low multicore density, no compute GPU, untuned BLAS and MPI")
	return t
}

// measuredMPW returns the reproduction's own 16-node MFLOPS/W (a fast
// proxy for the 96-node figure, which the green500 experiment runs).
func measuredMPW() float64 {
	// Telemetry: count requests against the quick-HPL once-cache. The
	// computed flag flips inside the once body, so a request that
	// arrives after the first compute finished is a hit.
	if ob := obs.Active(); ob != nil {
		if quickHPLComputed.Load() {
			ob.Counter("cache.quickhpl.hits").Add(1)
		} else {
			ob.Counter("cache.quickhpl.misses").Add(1)
		}
	}
	r, _ := quickHPL()
	return r
}

// quickHPLComputed reports whether the quickHPL once-cache has been
// filled — telemetry only, never consulted for control flow.
var quickHPLComputed atomic.Bool

// quickHPL caches the quick green500 headline. sync.OnceValues rather
// than a plain package var: with RunAll on the pool, green500-context
// and its neighbours may evaluate concurrently.
var quickHPL = sync.OnceValues(func() (float64, error) {
	defer quickHPLComputed.Store(true)
	tab := unbound(func() *Table { return runGreen500(Options{Quick: true}) })
	// last row, last column
	row := tab.Rows[len(tab.Rows)-1]
	var v float64
	if _, err := fmt.Sscanf(row[len(row)-1], "%f", &v); err != nil {
		return 0, err
	}
	return v, nil
})

func runStability(o Options) *Table {
	t := &Table{
		ID: "stability", Title: "Long-job survival on the prototype's failure modes",
		Paper:   "§6.1 / §6.3",
		Columns: []string{"nodes", "24h interrupt prob", "expected attempts", "machine MTBF (h)", "Young interval (h)", "checkpointed eff.", "MC 24h survival"},
	}
	pcie := reliability.TibidaboPCIe()
	trials := 50000
	if o.Quick {
		trials = 2000
	}
	sizes := []int{32, 96, 192, 1500}
	for _, row := range parmapObs("subrun",
		func(i int) string { return fmt.Sprintf("stability/n=%d", sizes[i]) },
		o.Jobs, len(sizes), func(i int) []string {
			n := sizes[i]
			p := pcie.JobInterruptProb(n, 24)
			att := pcie.ExpectedAttempts(n, 24)
			mtbf := reliability.ClusterMTBFHours(n, 2, reliability.DIMMAnnualErrorLow, pcie)
			interval := reliability.OptimalCheckpointHours(0.1, mtbf)
			eff := reliability.CheckpointEfficiency(interval, 0.1, 0.05, mtbf)
			// Monte-Carlo cross-check of the analytic 24h interrupt column:
			// seeded from the experiment/row labels, reduced on the same
			// pool, identical at any -j.
			mc := reliability.SimulateJobSurvivalParallel(mtbf, 24, trials,
				TaskSeed("stability", "mc-survival", fmt.Sprintf("%d", n)), o.Jobs)
			return []string{fmt.Sprintf("%d", n), fmt.Sprintf("%.1f%%", p*100),
				fmt.Sprintf("%.2f", att), fmt.Sprintf("%.0f", mtbf),
				fmt.Sprintf("%.1f", interval), fmt.Sprintf("%.1f%%", eff*100),
				fmt.Sprintf("%.1f%%", mc*100)}
		}) {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"§6.1's unstable PCIe plus §6.3's ECC-less DRAM, folded into checkpoint planning (Young's formula)",
		"MFLOPS/W comparisons ignore this; production viability does not (§6.3: 'before a production system is viable')",
		"MC column: chunk-seeded Monte-Carlo survival at the machine MTBF — identical at any -j")
	return t
}
