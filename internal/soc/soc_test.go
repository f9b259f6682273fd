package soc

import (
	"math"
	"testing"
)

func TestTable1PeakGFLOPS(t *testing.T) {
	// Table 1 "FP-64 GFLOPS" row.
	cases := []struct {
		p    *Platform
		want float64
	}{
		{Tegra2(), 2.0},
		{Tegra3(), 5.2},
		{Exynos5250(), 6.8},
		{CoreI7(), 76.8},
	}
	for _, c := range cases {
		if got := c.p.PeakGFLOPSMax(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s PeakGFLOPSMax = %v, want %v", c.p.Name, got, c.want)
		}
	}
}

func TestTable1MemBandwidth(t *testing.T) {
	cases := []struct {
		p    *Platform
		want float64
	}{
		{Tegra2(), 2.6},
		{Tegra3(), 5.86},
		{Exynos5250(), 12.8},
		{CoreI7(), 25.6},
	}
	for _, c := range cases {
		if got := c.p.Mem.PeakGBs; got != c.want {
			t.Errorf("%s PeakGBs = %v, want %v", c.p.Name, got, c.want)
		}
	}
}

func TestTable1CoresAndFreq(t *testing.T) {
	cases := []struct {
		p     *Platform
		cores int
		fmax  float64
	}{
		{Tegra2(), 2, 1.0},
		{Tegra3(), 4, 1.3},
		{Exynos5250(), 2, 1.7},
		{CoreI7(), 4, 2.4},
	}
	for _, c := range cases {
		if c.p.Cores != c.cores || c.p.MaxFreq() != c.fmax {
			t.Errorf("%s cores=%d fmax=%v, want %d %v",
				c.p.Name, c.p.Cores, c.p.MaxFreq(), c.cores, c.fmax)
		}
	}
}

func TestFreqPointsSortedAndValid(t *testing.T) {
	for _, p := range All() {
		for i := 1; i < len(p.FreqGHz); i++ {
			if p.FreqGHz[i] <= p.FreqGHz[i-1] {
				t.Errorf("%s: FreqGHz not strictly ascending: %v", p.Name, p.FreqGHz)
			}
		}
		if !p.HasFreq(p.MaxFreq()) || !p.HasFreq(p.MinFreq()) {
			t.Errorf("%s: HasFreq inconsistent", p.Name)
		}
		if p.HasFreq(99.9) {
			t.Errorf("%s: HasFreq(99.9) = true", p.Name)
		}
	}
}

func TestArchProperties(t *testing.T) {
	if Arch(CortexA9).FlopsPerCycle != 1.0 {
		t.Error("A9 must have 1 flop/cycle (FMA every 2 cycles)")
	}
	if Arch(CortexA15).FlopsPerCycle != 2.0 {
		t.Error("A15 must have 2 flops/cycle (pipelined FMA)")
	}
	if Arch(SandyBridge).FlopsPerCycle != 8.0 {
		t.Error("Sandy Bridge must have 8 flops/cycle (AVX)")
	}
	if Arch(CortexA15).MaxOutstandingMisses <= Arch(CortexA9).MaxOutstandingMisses {
		t.Error("A15 must sustain more outstanding misses than A9 (paper §3.2)")
	}
}

func TestArchUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown arch")
		}
	}()
	Arch("Itanium")
}

func TestPowerModelMonotonic(t *testing.T) {
	for _, p := range All() {
		prev := 0.0
		for _, f := range p.FreqGHz {
			w := p.Power.Watts(f, p.Cores)
			if w <= prev {
				t.Errorf("%s: power not increasing with frequency", p.Name)
			}
			prev = w
		}
		if p.Power.Watts(1.0, 1) >= p.Power.Watts(1.0, 2) {
			t.Errorf("%s: power not increasing with active cores", p.Name)
		}
		if p.Power.Watts(p.MinFreq(), 0) != p.Power.IdleW {
			t.Errorf("%s: zero active cores must draw idle power", p.Name)
		}
	}
}

func TestMobileSoCsLackECC(t *testing.T) {
	// §6.3: "the memory controller does not support ECC protection".
	for _, p := range All() {
		if p.Mobile && p.Mem.ECCCapable {
			t.Errorf("%s: mobile SoC modelled with ECC, contradicting §6.3", p.Name)
		}
	}
}

func TestPriceRatioRoughly70x(t *testing.T) {
	// §1: mobile SoCs ~70x cheaper than HPC parts ($1552 Xeon vs $21 Tegra 3).
	xeon := 1552.0
	ratio := xeon / Tegra2().PriceUSD
	if ratio < 50 || ratio > 90 {
		t.Errorf("price ratio = %.0f, want ~70", ratio)
	}
}

func TestStreamEfficienciesInRange(t *testing.T) {
	for _, p := range All() {
		m := p.Mem
		for _, e := range []float64{m.StreamEffSingle, m.StreamEffMulti} {
			if e <= 0 || e > 1 {
				t.Errorf("%s: STREAM efficiency %v out of (0,1]", p.Name, e)
			}
		}
	}
}
