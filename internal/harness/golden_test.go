package harness

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
)

// Differential golden wall for the event-driven MPI runtime rewrite:
// the full-registry output stream is pinned byte-for-byte to testdata
// captures taken before the rewrite (park-per-protocol-step runtime,
// lazy-deletion cancel). Any change to event ordering, protocol
// timing, float evaluation order, or render formatting shows up here
// as a diff against the frozen bytes — at every jobs value, with and
// without telemetry attached.
//
// To regenerate after an *intentional* physics or formatting change:
//
//	go build -o /tmp/mhpc ./cmd/mhpc
//	/tmp/mhpc all -quick > internal/harness/testdata/golden-quick.txt
//	/tmp/mhpc all        > internal/harness/testdata/golden-full.txt
//
// and say why in the commit message.

// readGolden loads a testdata capture.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("missing golden capture: %v", err)
	}
	return string(b)
}

// diffLine reports the first line where got and want diverge, with
// context, so a golden break names the experiment at fault instead of
// dumping 28 KB.
func diffLine(t *testing.T, got, want string) {
	t.Helper()
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("first divergence at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("outputs diverge in length: got %d lines, want %d", len(gl), len(wl))
}

// goldenGrid is the jobs axis every golden test sweeps: the serial
// and a parallel task pool. GOMAXPROCS is appended when it differs
// from the fixed values so the one-worker-per-CPU configuration stays
// covered on larger machines.
func goldenGrid() []int {
	jobs := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		jobs = append(jobs, p)
	}
	return jobs
}

// The quick registry stream must match the pre-rewrite capture at
// every jobs value of the grid.
func TestRunAllGoldenQuick(t *testing.T) {
	want := readGolden(t, "golden-quick.txt")
	for _, jobs := range goldenGrid() {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			var out bytes.Buffer
			if err := RunAll(&out, Options{Quick: true, Jobs: jobs}); err != nil {
				t.Fatal(err)
			}
			if out.String() != want {
				diffLine(t, out.String(), want)
			}
		})
	}
}

// Attaching the full telemetry stack (collector + engine observer)
// must not perturb a single byte of the stream at any grid cell:
// observation is out-of-band by construction.
func TestRunAllGoldenQuickTelemetry(t *testing.T) {
	want := readGolden(t, "golden-quick.txt")
	for _, jobs := range goldenGrid() {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			c := obs.New()
			obs.SetActive(c)
			sim.SetDefaultObserver(obs.NewSimObserver(c))
			var out bytes.Buffer
			err := RunAll(&out, Options{Quick: true, Jobs: jobs})
			sim.SetDefaultObserver(nil)
			obs.SetActive(nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != want {
				diffLine(t, out.String(), want)
			}
		})
	}
}

// The full-size registry (the paper's real node counts) against its
// capture. Skipped in -short: the race wall runs the quick goldens;
// the regular suite runs this one.
func TestRunAllGoldenFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry golden runs in the regular (non-short) suite")
	}
	want := readGolden(t, "golden-full.txt")
	// The subtest keeps its established name: one engine partition,
	// i.e. the sequential engine every run now uses.
	t.Run("intra=1", func(t *testing.T) {
		var out bytes.Buffer
		if err := RunAll(&out, Options{Jobs: 4}); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			diffLine(t, out.String(), want)
		}
	})
}
