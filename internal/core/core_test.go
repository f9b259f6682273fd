package core

import (
	"math"
	"testing"

	"mobilehpc/internal/soc"
)

func TestEvaluateSoCBaselineIsUnity(t *testing.T) {
	ev := EvaluateSoC(soc.Tegra2(), 1.0, 1)
	if math.Abs(ev.Speedup-1) > 1e-12 || math.Abs(ev.RelEnergy-1) > 1e-12 {
		t.Errorf("baseline not normalised: %+v", ev)
	}
}

func TestEvaluateSoCDefaultsToAllCores(t *testing.T) {
	ev := EvaluateSoC(soc.CoreI7(), 2.4, 0)
	if ev.Threads != 4 {
		t.Errorf("threads = %d, want 4", ev.Threads)
	}
}

func TestEvaluateAllCoversEveryPlatformTwice(t *testing.T) {
	evs := EvaluateAll()
	if len(evs) != 8 {
		t.Fatalf("got %d evaluations, want 8", len(evs))
	}
	for i := 0; i < len(evs); i += 2 {
		if evs[i].Threads != 1 || evs[i+1].Threads != evs[i+1].Platform.Cores {
			t.Errorf("pair %d not serial+allcores", i/2)
		}
		if evs[i+1].Speedup <= evs[i].Speedup {
			t.Errorf("%s: multicore not faster", evs[i].Platform.Name)
		}
	}
}

func TestTibidaboHPLSmall(t *testing.T) {
	r, mpw := TibidaboHPL(4, 16384)
	if !r.Valid || r.GFLOPS <= 0 || mpw <= 0 {
		t.Errorf("degenerate HPL result: %+v mpw=%v", r, mpw)
	}
}

func TestExperimentsNonEmpty(t *testing.T) {
	if len(Experiments()) < 14 {
		t.Errorf("registry too small: %d", len(Experiments()))
	}
}
