package reliability

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mobilehpc/internal/sim"
)

func TestMonteCarloMatchesAnalyticDailyProb(t *testing.T) {
	// 1,500-node headline: the sampled daily error fraction must match
	// the closed form within Monte-Carlo noise.
	want := ClusterDailyErrorProb(1500, 2, DIMMAnnualErrorLow)
	got := SimulateClusterDays(1500, 2, DIMMAnnualErrorLow, 3000, 42)
	if math.Abs(got-want) > 0.03 {
		t.Errorf("MC daily probability = %.3f, analytic %.3f", got, want)
	}
}

func TestMonteCarloSmallCluster(t *testing.T) {
	want := ClusterDailyErrorProb(96, 2, DIMMAnnualErrorHigh)
	got := SimulateClusterDays(96, 2, DIMMAnnualErrorHigh, 5000, 7)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("MC = %.4f, analytic %.4f", got, want)
	}
}

func TestMonteCarloSurvivalMatchesExponential(t *testing.T) {
	mtbf := 80.0
	job := 24.0
	want := math.Exp(-job / mtbf)
	got := SimulateJobSurvival(mtbf, job, 20000, 99)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("MC survival = %.3f, analytic %.3f", got, want)
	}
}

func TestMonteCarloDeterministicForSeed(t *testing.T) {
	a := SimulateClusterDays(100, 2, 0.04, 500, 5)
	b := SimulateClusterDays(100, 2, 0.04, 500, 5)
	if a != b {
		t.Error("same seed produced different results")
	}
	c := SimulateClusterDays(100, 2, 0.04, 500, 6)
	if a == c {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

// Chunked reduction contract: the parallel variants must return the
// exact serial chunked sum for any worker count, because the chunk
// decomposition and sub-seeds depend only on (seed, trials).
func TestChunkedParallelEqualsSerialSum(t *testing.T) {
	// Trial counts straddling the chunk size, including a ragged tail
	// and an exact multiple.
	for _, days := range []int{1, MCChunk - 1, MCChunk, MCChunk + 1, 3*MCChunk + 37, 4 * MCChunk} {
		serial := SimulateClusterDaysParallel(100, 2, 0.04, days, 11, 1)
		for _, jobs := range []int{0, 2, 4, 16} {
			if got := SimulateClusterDaysParallel(100, 2, 0.04, days, 11, jobs); got != serial {
				t.Errorf("days=%d jobs=%d: %v != serial %v", days, jobs, got, serial)
			}
		}
	}
	for _, trials := range []int{1, MCChunk, 2*MCChunk + 5} {
		serial := SimulateJobSurvivalParallel(80, 24, trials, 7, 1)
		for _, jobs := range []int{2, 8} {
			if got := SimulateJobSurvivalParallel(80, 24, trials, 7, jobs); got != serial {
				t.Errorf("trials=%d jobs=%d: %v != serial %v", trials, jobs, got, serial)
			}
		}
	}
}

// Seed stability: a fixed seed gives fixed failure counts run-to-run,
// and distinct seeds give distinct streams.
func TestChunkedSeedStability(t *testing.T) {
	a := SimulateClusterDaysParallel(100, 2, 0.04, 2000, 5, 4)
	b := SimulateClusterDaysParallel(100, 2, 0.04, 2000, 5, 4)
	if a != b {
		t.Error("same seed produced different chunked results")
	}
	if c := SimulateClusterDaysParallel(100, 2, 0.04, 2000, 6, 4); a == c {
		t.Error("different seeds produced identical chunked results (suspicious)")
	}
	s1 := SimulateJobSurvivalParallel(80, 24, 4000, 5, 4)
	if s2 := SimulateJobSurvivalParallel(80, 24, 4000, 5, 4); s1 != s2 {
		t.Error("same seed produced different survival results")
	}
}

// The chunked estimator must still agree with the analytic model — the
// reseeding per chunk cannot bias the estimate.
func TestChunkedMatchesAnalytic(t *testing.T) {
	want := ClusterDailyErrorProb(96, 2, DIMMAnnualErrorHigh)
	got := SimulateClusterDaysParallel(96, 2, DIMMAnnualErrorHigh, 5000, 7, 4)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("chunked MC = %.4f, analytic %.4f", got, want)
	}
	mtbf, job := 80.0, 24.0
	wantS := math.Exp(-job / mtbf)
	gotS := SimulateJobSurvivalParallel(mtbf, job, 20000, 99, 4)
	if math.Abs(gotS-wantS) > 0.02 {
		t.Errorf("chunked MC survival = %.3f, analytic %.3f", gotS, wantS)
	}
}

// chunkSeed must decorrelate neighbouring chunks and preserve the
// caller's seed as an input.
func TestChunkSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		s := chunkSeed(42, i)
		if seen[s] {
			t.Fatalf("chunkSeed(42, %d) collides", i)
		}
		seen[s] = true
	}
	if chunkSeed(1, 0) == chunkSeed(2, 0) {
		t.Error("chunkSeed ignores the base seed")
	}
}

func TestChunkedPanicsOnBadInput(t *testing.T) {
	for i, fn := range []func(){
		func() { SimulateClusterDaysParallel(10, 2, 0.04, 0, 1, 4) },
		func() { SimulateJobSurvivalParallel(0, 1, 10, 1, 4) },
		func() { SimulateJobSurvivalParallel(10, 1, 0, 1, 4) },
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

func TestMonteCarloPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { SimulateClusterDays(10, 2, 0.04, 0, 1) },
		func() { SimulateJobSurvival(0, 1, 10, 1) },
		func() { SimulateJobSurvival(10, 1, 0, 1) },
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

// The chunked Monte-Carlo reduction must honour the goroutine-bound
// abort flag: a raised flag unwinds the loop with *sim.AbortError
// (never a partial sum), both on the serial path and after draining
// the parallel workers, leaving no goroutines behind.
func TestMonteCarloAbort(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		base := runtime.NumGoroutine()
		cause := errors.New("campaign cancelled")
		flag := sim.NewAbortFlag()
		unbind := sim.BindAbort(flag)
		var ab *sim.AbortError
		func() {
			defer func() {
				r := recover()
				var ok bool
				if ab, ok = r.(*sim.AbortError); !ok {
					t.Fatalf("jobs=%d: panic %v (%T), want *sim.AbortError", jobs, r, r)
				}
			}()
			// Raise the flag from inside the first chunk: every later
			// chunk boundary must refuse to proceed. The count is atomic
			// because at jobs > 1 chunks run on several workers.
			var n atomic.Int64
			reduceChunks(20*MCChunk, jobs, func(chunk, trials int) int {
				if n.Add(1) == 1 {
					flag.Abort(cause)
				}
				return trials
			})
		}()
		unbind()
		if !errors.Is(ab, cause) {
			t.Fatalf("jobs=%d: abort error %v does not wrap the cause", jobs, ab)
		}
		// Deterministic stream results must be unaffected when no flag
		// is bound (the normal path).
		got := SimulateJobSurvivalParallel(100, 24, 2000, 7, jobs)
		want := SimulateJobSurvivalParallel(100, 24, 2000, 7, 1)
		if got != want {
			t.Fatalf("jobs=%d: survival %v != serial %v", jobs, got, want)
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("jobs=%d: goroutines leaked: %d > %d", jobs, g, base)
		}
	}
}
