package main

// Kill-and-resume smoke: the resumable-invocation contract proven
// against the real binary. Run a sweep with -ckpt-dir, SIGKILL it
// mid-flight once the ledger holds committed progress, rerun the
// identical invocation, and require (a) stdout byte-identical to an
// uninterrupted run, (b) ckpt.hits > 0 (committed progress restored),
// and (c) pool.tasks strictly below the uninterrupted run's (committed
// progress never recomputed) — at -j 1 and -j 4. Gated
// behind MHPC_RESUME_SMOKE=1; the Makefile resume-smoke target (wired
// into `make check`) sets the gate.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// smokeManifest is the slice of the -report JSON the smoke asserts on.
type smokeManifest struct {
	Counters map[string]int64 `json:"counters"`
}

// readManifest decodes a -report file.
func readManifest(t *testing.T, path string) smokeManifest {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m smokeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad manifest %s: %v", path, err)
	}
	return m
}

// completeLines counts fsynced ledger lines in dir's single ckpt file
// (0 when the file does not exist yet).
func completeLines(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0
		}
		return bytes.Count(raw, []byte("\n"))
	}
	return 0
}

func TestResumeSmoke(t *testing.T) {
	if os.Getenv("MHPC_RESUME_SMOKE") != "1" {
		t.Skip("set MHPC_RESUME_SMOKE=1 to run the mhpc kill-and-resume smoke test")
	}

	bin := filepath.Join(t.TempDir(), "mhpc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building mhpc: %v\n%s", err, out)
	}

	// fig6 + green500 at full size: a multi-second sweep with a dozen
	// checkpointable tasks — a wide window to kill into.
	ids := []string{"fig6", "green500"}

	// Golden: the uninterrupted run, with a manifest for the total task
	// count every resumed cell must undercut.
	goldenManifest := filepath.Join(t.TempDir(), "golden.json")
	golden, err := exec.Command(bin, append([]string{"run", "-j", "1", "-report", goldenManifest}, ids...)...).Output()
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	goldenTasks := readManifest(t, goldenManifest).Counters["pool.tasks"]
	if goldenTasks < 4 {
		t.Fatalf("golden pool.tasks = %d, too few for a meaningful resume", goldenTasks)
	}

	for _, j := range []string{"1", "4"} {
		t.Run("j"+j, func(t *testing.T) {
			// A SIGKILLed attempt may race the run's natural end; retry
			// with a fresh ledger until the kill lands mid-sweep.
			for attempt := 1; ; attempt++ {
				ckptDir := filepath.Join(t.TempDir(), fmt.Sprintf("ck%d", attempt))
				args := append([]string{"run", "-j", j, "-ckpt-dir", ckptDir}, ids...)

				victim := exec.Command(bin, args...)
				if err := victim.Start(); err != nil {
					t.Fatal(err)
				}
				exited := make(chan error, 1)
				go func() { exited <- victim.Wait() }()
				deadline := time.Now().Add(30 * time.Second)
				killed := false
				for !killed {
					select {
					case <-exited:
						// Finished before we could kill it — retry the cell.
					case <-time.After(2 * time.Millisecond):
						if completeLines(ckptDir) >= 2 {
							victim.Process.Signal(syscall.SIGKILL)
							<-exited
							killed = true
							continue
						}
						if time.Now().Before(deadline) {
							continue
						}
						t.Fatal("run never committed 2 ledger entries")
					}
					break
				}
				if !killed {
					if attempt >= 10 {
						t.Fatal("could not interrupt the run in 10 attempts")
					}
					continue
				}
				if got := completeLines(ckptDir); got < 2 {
					t.Fatalf("ledger holds %d complete lines after SIGKILL, want >= 2", got)
				}

				// Resume: identical invocation, plus a manifest.
				manifest := filepath.Join(t.TempDir(), fmt.Sprintf("resume%d.json", attempt))
				resume := exec.Command(bin, append([]string{"run", "-j", j,
					"-ckpt-dir", ckptDir, "-report", manifest}, ids...)...)
				var stdout, stderr bytes.Buffer
				resume.Stdout, resume.Stderr = &stdout, &stderr
				if err := resume.Run(); err != nil {
					t.Fatalf("resume run: %v\n%s", err, stderr.String())
				}
				if !bytes.Equal(stdout.Bytes(), golden) {
					t.Fatalf("resumed stdout diverged from the uninterrupted run (%d vs %d bytes)",
						stdout.Len(), len(golden))
				}
				m := readManifest(t, manifest)
				if hits := m.Counters["ckpt.hits"]; hits < 1 {
					t.Errorf("ckpt.hits = %d, want >= 1 (nothing was restored)", hits)
				}
				if tasks := m.Counters["pool.tasks"]; tasks >= goldenTasks {
					t.Errorf("resumed pool.tasks = %d, want < golden %d (committed progress recomputed)",
						tasks, goldenTasks)
				}
				if !strings.Contains(stderr.String(), "mhpc: ckpt: resuming from") {
					t.Errorf("resume run did not announce the recovery:\n%s", stderr.String())
				}
				// Success discards the ledger.
				if got := completeLines(ckptDir); got != 0 {
					t.Errorf("ledger survived a successful resume (%d lines)", got)
				}
				return
			}
		})
	}
}
