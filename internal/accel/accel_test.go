package accel

import (
	"math"
	"testing"

	"mobilehpc/internal/kernels"
	"mobilehpc/internal/perf"
	"mobilehpc/internal/soc"
)

func TestULPGeForceNotProgrammable(t *testing.T) {
	// §3: "These current GPUs cannot be used for computation."
	d := ULPGeForce()
	if d.Programmable {
		t.Error("ULP GeForce must not be programmable")
	}
	if _, err := d.Offload(perf.Profile{Flops: 1}, "fp32", 1); err == nil {
		t.Error("offload to a graphics-only GPU must fail")
	}
}

func TestExperimentalDriversPenalised(t *testing.T) {
	// §5: experimental stacks are "far from optimal".
	mali := MaliT604()
	mature := *mali
	mature.DriverMature = true
	pr := perf.Profile{Kernel: "x", Flops: 1e9, Bytes: 1e7}
	a, err := mali.Offload(pr, "fp32", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mature.Offload(pr, "fp32", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.ComputeTime <= b.ComputeTime {
		t.Error("immature driver must be slower")
	}
}

func TestOffloadComponentsPositive(t *testing.T) {
	pr := perf.Profile{Kernel: "x", Flops: 5e9, Bytes: 1e8}
	for _, d := range []*Device{MaliT604(), CarmaCUDA(), Tegra5Logan()} {
		r, err := d.Offload(pr, "fp32", 10)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if r.ComputeTime <= 0 || r.TransferTime <= 0 || r.LaunchTime <= 0 {
			t.Errorf("%s: degenerate breakdown %+v", d.Name, r)
		}
		if math.Abs(r.Time-(r.ComputeTime+r.TransferTime+r.LaunchTime)) > 1e-12 {
			t.Errorf("%s: components do not sum", d.Name)
		}
	}
}

func TestFP64MuchSlowerThanFP32OnMobileGPUs(t *testing.T) {
	pr := perf.Profile{Kernel: "x", Flops: 1e9}
	for _, d := range []*Device{MaliT604(), Tegra5Logan()} {
		r32, _ := d.Offload(pr, "fp32", 1)
		r64, _ := d.Offload(pr, "fp64", 1)
		if r64.ComputeTime <= r32.ComputeTime {
			t.Errorf("%s: FP64 not slower than FP32", d.Name)
		}
	}
}

func TestUnknownPrecisionRejected(t *testing.T) {
	if _, err := MaliT604().Offload(perf.Profile{Flops: 1}, "fp16", 1); err == nil {
		t.Error("unknown precision accepted")
	}
}

func TestCrashExpectationScalesWithLaunches(t *testing.T) {
	pr := perf.Profile{Kernel: "x", Flops: 1e6}
	r1, _ := MaliT604().Offload(pr, "fp32", 100)
	r2, _ := MaliT604().Offload(pr, "fp32", 1000)
	if math.Abs(r2.CrashExpected-10*r1.CrashExpected) > 1e-12 {
		t.Error("crash expectation not linear in launches")
	}
	rl, _ := Tegra5Logan().Offload(pr, "fp32", 1000)
	if rl.CrashExpected != 0 {
		t.Error("production driver should not crash")
	}
}

func TestOffloadWinsOnlyForComputeHeavyKernels(t *testing.T) {
	// The dmmm kernel (compute-heavy FP, SIMD friendly) should benefit
	// from a mature FP32 device; the vecop kernel (pure streaming)
	// should not — the transfers eat it. This is the §7 nuance: GPUs
	// help "applications that scale", not everything.
	host := soc.Exynos5250()
	logan := Tegra5Logan()
	var dmmm, vecop perf.Profile
	for _, k := range kernels.Suite() {
		switch k.Tag() {
		case "dmmm":
			dmmm = k.Profile()
		case "vecop":
			vecop = k.Profile()
		}
	}
	sd, err := Speedup(host, logan, dmmm, "fp32", 8)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := Speedup(host, logan, vecop, "fp32", 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-10.16) > 0.05 {
		t.Errorf("dmmm FP32 offload speedup on Logan = %v, want 10.16", sd)
	}
	if sv >= sd {
		t.Errorf("streaming kernel (%v) should benefit less than dmmm (%v)", sv, sd)
	}
}

func TestMixedPrecisionHPL(t *testing.T) {
	host := soc.Exynos5250()
	s, iters, err := MixedPrecisionHPL(host, Tegra5Logan(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Error("no refinement iterations")
	}
	if s <= 1 {
		t.Errorf("mixed-precision speedup = %v, want > 1 on a Kepler-class part", s)
	}
	if _, _, err := MixedPrecisionHPL(host, ULPGeForce(), 1024); err == nil {
		t.Error("mixed precision on a graphics-only GPU must fail")
	}
}
