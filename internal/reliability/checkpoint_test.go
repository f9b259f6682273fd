package reliability

import (
	"math"
	"testing"
	"testing/quick"
)

func TestYoungFormula(t *testing.T) {
	// sqrt(2 * 0.1 * 80) = 4.0 hours.
	if got := OptimalCheckpointHours(0.1, 80); math.Abs(got-4) > 1e-12 {
		t.Errorf("interval = %v, want 4", got)
	}
}

func TestYoungIntervalIsOptimal(t *testing.T) {
	// Efficiency at Young's interval must beat nearby intervals.
	const c, r, mtbf = 0.1, 0.05, 80.0
	opt := OptimalCheckpointHours(c, mtbf)
	best := CheckpointEfficiency(opt, c, r, mtbf)
	for _, f := range []float64{0.25, 0.5, 2, 4} {
		if e := CheckpointEfficiency(opt*f, c, r, mtbf); e > best+1e-9 {
			t.Errorf("interval %vx Young beats optimum: %v > %v", f, e, best)
		}
	}
}

func TestEfficiencyBounds(t *testing.T) {
	if e := CheckpointEfficiency(1, 0.01, 0.01, 1000); e <= 0.9 || e >= 1 {
		t.Errorf("benign regime efficiency = %v", e)
	}
	// MTBF-dominated regime (legitimate C < interval, failures so
	// frequent rework exceeds the interval) clamps at zero.
	if e := CheckpointEfficiency(10, 0.001, 10, 0.1); e != 0 {
		t.Errorf("pathological efficiency = %v, want 0", e)
	}
}

// TestCheckpointCostBoundary pins the C-vs-interval boundary: the
// formula degenerates at C >= interval, and used to return a nonsense
// negative-clamped value there instead of failing loudly.
func TestCheckpointCostBoundary(t *testing.T) {
	cases := []struct {
		name                          string
		interval, cost, restart, mtbf float64
		wantPanic                     bool
	}{
		{"cost equals interval", 1, 1, 0.05, 100, true},
		{"cost exceeds interval", 0.001, 10, 10, 0.1, true},
		{"negative cost", 1, -0.1, 0.05, 100, true},
		{"negative restart", 1, 0.1, -0.05, 100, true},
		{"cost just below interval", 1, 0.999, 0.05, 100, false},
		{"benign", 4, 0.1, 0.05, 80, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover() != nil; got != c.wantPanic {
					t.Errorf("panic = %v, want %v (recover: %v)", got, c.wantPanic, recover())
				}
			}()
			e := CheckpointEfficiency(c.interval, c.cost, c.restart, c.mtbf)
			if !c.wantPanic && (e < 0 || e >= 1 || math.IsNaN(e)) {
				t.Errorf("efficiency = %v outside [0, 1)", e)
			}
		})
	}
}

func TestJobInterruptProbGrowsWithScale(t *testing.T) {
	s := TibidaboPCIe()
	p96 := s.JobInterruptProb(96, 24)
	p192 := s.JobInterruptProb(192, 24)
	if p192 <= p96 {
		t.Error("interrupt probability must grow with node count")
	}
	if p96 <= 0 || p96 >= 1 {
		t.Errorf("p96 = %v", p96)
	}
	// The prototype's observed order: a busy day on the full partition
	// has a noticeable (but not certain) chance of losing a node.
	if p96 < 0.05 || p96 > 0.6 {
		t.Errorf("96-node daily interrupt probability = %v, implausible", p96)
	}
}

func TestExpectedAttempts(t *testing.T) {
	s := NodeStability{HangsPerNodeDay: 0}
	if got := s.ExpectedAttempts(96, 24); got != 1 {
		t.Errorf("stable system needs %v attempts", got)
	}
	flaky := TibidaboPCIe()
	if got := flaky.ExpectedAttempts(96, 24); got <= 1 {
		t.Errorf("flaky system attempts = %v", got)
	}
}

func TestClusterMTBFCombines(t *testing.T) {
	memOnly := ClusterMTBFHours(96, 2, 0.04, NodeStability{})
	both := ClusterMTBFHours(96, 2, 0.04, TibidaboPCIe())
	if both >= memOnly {
		t.Error("adding hangs must lower MTBF")
	}
	if math.IsInf(memOnly, 1) || memOnly <= 0 {
		t.Errorf("memOnly = %v", memOnly)
	}
	// The stability table's Tibidabo row: 96 nodes at the low DIMM rate
	// plus PCIe hangs fail every ~78 hours.
	if got := ClusterMTBFHours(96, 2, DIMMAnnualErrorLow, TibidaboPCIe()); math.Abs(got-77.55) > 0.05 {
		t.Errorf("Tibidabo cluster MTBF = %.2f h, want 77.55", got)
	}
}

func TestCheckpointPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { OptimalCheckpointHours(0, 1) },
		func() { CheckpointEfficiency(0, 1, 1, 1) },
		func() { TibidaboPCIe().JobInterruptProb(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: survival-related quantities stay within bounds across the
// parameter space.
func TestInterruptProbBoundsProperty(t *testing.T) {
	f := func(n16 uint16, h8, r8 uint8) bool {
		nodes := int(n16)%2000 + 1
		hours := float64(h8 % 100)
		s := NodeStability{HangsPerNodeDay: float64(r8) / 1000}
		p := s.JobInterruptProb(nodes, hours)
		return p >= 0 && p < 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
