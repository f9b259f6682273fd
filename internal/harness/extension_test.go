package harness

import (
	"strconv"
	"strings"
	"testing"

	"mobilehpc/internal/kernels"
	"mobilehpc/internal/perf"
	"mobilehpc/internal/soc"
)

func TestProjectionClosesTheGap(t *testing.T) {
	// §7: "the cost of supercomputing may be about to fall" — the
	// projected ARMv8 part must beat every measured mobile platform
	// and approach i7 multicore throughput at far better energy.
	profs := kernels.Profiles()
	base := perf.Suite(soc.Tegra2(), 1.0, profs, 1)
	v8 := perf.Suite(soc.ARMv8Quad(), 2.0, profs, 4)
	ex := perf.Suite(soc.Exynos5250(), 1.7, profs, 2)
	i7 := perf.Suite(soc.CoreI7(), 2.4, profs, 4)

	sv8 := base.MeanTime / v8.MeanTime
	sex := base.MeanTime / ex.MeanTime
	si7 := base.MeanTime / i7.MeanTime
	within(t, "ARMv8 quad@2GHz vs Tegra2 (projection 11.27)", sv8, 11.27, 0.01)
	if sv8 <= sex {
		t.Errorf("ARMv8 projection (%v) not faster than Exynos5 (%v)", sv8, sex)
	}
	if sv8 < si7*0.5 {
		t.Errorf("ARMv8 projection (%v) should reach at least half of i7 (%v)", sv8, si7)
	}
	if v8.MeanEnergy >= ex.MeanEnergy {
		t.Errorf("ARMv8 projection energy (%v J) should beat Exynos5 (%v J)",
			v8.MeanEnergy, ex.MeanEnergy)
	}
}

func TestReliabilityTableHits30Percent(t *testing.T) {
	tab := runReliability(Options{})
	// The 1500-node row, low-rate column, must read ~28-32%.
	var cell string
	for _, row := range tab.Rows {
		if row[0] == "1500" {
			cell = row[2]
		}
	}
	if cell == "" {
		t.Fatal("no 1500-node row")
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	if v < 25 || v > 35 {
		t.Errorf("1500-node daily error probability = %v%%, paper ~30%%", v)
	}
}

func TestEnergyCompareDirection(t *testing.T) {
	tab := runEnergyCompare(Options{Quick: true})
	var ratio []string
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "ratio") {
			ratio = row
		}
	}
	if ratio == nil {
		t.Fatal("no ratio row")
	}
	timeRatio, err1 := strconv.ParseFloat(ratio[2], 64)
	energyRatio, err2 := strconv.ParseFloat(ratio[4], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("ratio row unparsable: %v", ratio)
	}
	// Companion study [13]: ARM slower (ratio > 1) but lower energy
	// (ratio < 1) — the qualitative result this experiment must keep.
	if timeRatio <= 1 {
		t.Errorf("ARM time ratio = %v, must be > 1 (slower)", timeRatio)
	}
	if energyRatio >= 1 {
		t.Errorf("ARM energy ratio = %v, must be < 1 (less energy)", energyRatio)
	}
	if timeRatio > 6 || energyRatio < 0.15 {
		t.Errorf("ratios (%v, %v) outside the study's order of magnitude", timeRatio, energyRatio)
	}
}

func TestOpenMXAblationImprovesEfficiency(t *testing.T) {
	tab := runOpenMXAblation(Options{Quick: true})
	for _, row := range tab.Rows {
		gain, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(row[3], "+"), "%"), 64)
		if err != nil {
			t.Fatalf("gain cell %q: %v", row[3], err)
		}
		if gain <= 0 {
			t.Errorf("nodes=%s: Open-MX gain %v%% not positive", row[0], gain)
		}
	}
}

func TestIOBottleneckTableShape(t *testing.T) {
	tab := runIOBottleneck(Options{})
	sawTimeout := false
	for _, row := range tab.Rows {
		if row[2] == "true" && row[4] == "false" {
			sawTimeout = true
		}
		if row[4] == "true" {
			t.Errorf("serialized I/O timed out at %s nodes", row[0])
		}
	}
	if !sawTimeout {
		t.Error("no node count exhibits the parallel-times-out, serialized-works split")
	}
}
