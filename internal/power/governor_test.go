package power

import (
	"math"
	"testing"
	"testing/quick"

	"mobilehpc/internal/soc"
)

func TestPerformanceGovernorIsIdentity(t *testing.T) {
	p := soc.Tegra2()
	r := DefaultPerformance().Burst(p, 2, 5.0)
	if r.Time != 5.0 || r.RampLoss != 0 {
		t.Errorf("performance governor changed the burst: %+v", r)
	}
	want := p.Power.Watts(p.MaxFreq(), 2) * 5
	if math.Abs(r.Energy-want) > 1e-9 {
		t.Errorf("energy = %v, want %v", r.Energy, want)
	}
}

func TestOndemandSlowerOnShortBursts(t *testing.T) {
	p := soc.Tegra2()
	od := DefaultOndemand().Burst(p, 2, 0.5)
	perf := DefaultPerformance().Burst(p, 2, 0.5)
	if od.Time <= perf.Time {
		t.Errorf("ondemand (%v) not slower than performance (%v)", od.Time, perf.Time)
	}
	if od.RampLoss <= 0 {
		t.Error("no ramp loss recorded")
	}
}

func TestOndemandRampLossBoundedForLongBursts(t *testing.T) {
	// For a long burst the ramp amortises: loss is bounded by the ramp
	// length regardless of total work — the reason short iterative
	// phases suffer most.
	p := soc.Exynos5250()
	short := DefaultOndemand().Burst(p, 2, 0.3)
	long := DefaultOndemand().Burst(p, 2, 30)
	if math.Abs(long.RampLoss-short.RampLoss) > 0.5 {
		t.Errorf("ramp loss should be ~constant: short %v vs long %v",
			short.RampLoss, long.RampLoss)
	}
	if long.RampLoss/long.Time > 0.05 {
		t.Errorf("long-burst relative loss %v too high", long.RampLoss/long.Time)
	}
	if short.RampLoss/short.Time < 0.2 {
		t.Errorf("short-burst relative loss %v too low to matter", short.RampLoss/short.Time)
	}
}

func TestCampaignAccumulates(t *testing.T) {
	p := soc.Tegra2()
	one := DefaultOndemand().Burst(p, 2, 1.0)
	ten := DefaultOndemand().Campaign(p, 2, 10, 1.0)
	if math.Abs(ten.Time-10*one.Time) > 1e-9 {
		t.Errorf("campaign time %v != 10x burst %v", ten.Time, one.Time)
	}
	if math.Abs(ten.RampLoss-10*one.RampLoss) > 1e-9 {
		t.Error("campaign ramp loss must accumulate per burst")
	}
}

func TestPaperChoiceJustified(t *testing.T) {
	// §5 pins the performance governor: for an HPC campaign of
	// repeated solver steps, performance must dominate ondemand in
	// time on every platform.
	for _, p := range soc.All() {
		od := DefaultOndemand().Campaign(p, p.Cores, 50, 0.5)
		pf := DefaultPerformance().Campaign(p, p.Cores, 50, 0.5)
		if od.Time <= pf.Time {
			t.Errorf("%s: ondemand not slower (%v vs %v)", p.Name, od.Time, pf.Time)
		}
	}
	// The governor table's headline: on the Exynos 5250, 50 half-second
	// steps under ondemand take ~42% longer than under performance.
	ex := soc.Exynos5250()
	od := DefaultOndemand().Campaign(ex, 2, 50, 0.5)
	pf := DefaultPerformance().Campaign(ex, 2, 50, 0.5)
	if loss := (od.Time/pf.Time - 1) * 100; math.Abs(loss-42.35) > 0.5 {
		t.Errorf("Exynos5 ondemand campaign loss = %.2f%%, want 42.35", loss)
	}
}

func TestBurstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for negative burst")
		}
	}()
	DefaultPerformance().Burst(soc.Tegra2(), 1, -1)
}

// Property: ondemand completes the same work — wall time >= work, and
// equality only when there is a single operating point.
func TestOndemandTimeLowerBoundProperty(t *testing.T) {
	p := soc.Tegra3()
	f := func(w16 uint16) bool {
		work := float64(w16%500)/100 + 0.01
		r := DefaultOndemand().Burst(p, 2, work)
		return r.Time >= work-1e-12 && r.Energy > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
