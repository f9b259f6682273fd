package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mobilehpc/internal/cliflag"
)

// The -j flag of run and all must accept positive integers and
// "auto", and reject — with an error, never a silent fallback — zero,
// negative, and garbage values. An accepted value gets past flag
// validation to the experiment lookup, so an unknown id proves the
// value was taken without running anything.
func TestParseJobs(t *testing.T) {
	cases := []struct {
		in      string
		wantErr bool
	}{
		{"1", false},
		{"4", false},
		{"96", false},
		{"auto", false},
		{"0", true},
		{"-1", true},
		{"-8", true},
		{"", true},
		{"abc", true},
		{"1.5", true},
		{"4 ", true},
		{" 4", true},
		{"0x4", true},
		{"AUTO", true}, // case-sensitive, like every other flag value
	}
	for _, c := range cases {
		err := run([]string{"-j", c.in, "no-such-experiment"})
		if err == nil {
			t.Fatalf("run -j %q with an unknown experiment returned nil", c.in)
		}
		rejected := strings.Contains(err.Error(), "invalid worker count")
		if rejected != c.wantErr {
			t.Errorf("run -j %q: err = %v, want rejected=%v", c.in, err, c.wantErr)
		}
		if c.wantErr {
			if err := all([]string{"-j", c.in}); err == nil ||
				!strings.Contains(err.Error(), "invalid worker count") {
				t.Errorf("all -j %q: err = %v, want an invalid worker count error", c.in, err)
			}
		}
	}
}

// The -j default comes from MHPC_PARALLEL verbatim (validation
// happens at parse time so a bad environment value is an error when
// the command runs, not a silent fallback to serial).
func TestDefaultJobsSpec(t *testing.T) {
	t.Setenv("MHPC_PARALLEL", "7")
	if got := defaultJobsSpec(); got != "7" {
		t.Errorf("defaultJobsSpec with MHPC_PARALLEL=7 = %q", got)
	}
	t.Setenv("MHPC_PARALLEL", "garbage")
	if got := defaultJobsSpec(); got != "garbage" {
		t.Errorf("defaultJobsSpec must pass the raw value through, got %q", got)
	}
	if _, err := cliflag.ParseJobs(defaultJobsSpec()); err == nil {
		t.Error("garbage MHPC_PARALLEL must fail cliflag.ParseJobs")
	}
}

// faultReport must be deterministic per (nodes, hours, seed) — the
// CLI-facing face of the fault-injection byte-identity guarantee —
// and must change when the seed does.
func TestFaultReportDeterministic(t *testing.T) {
	render := func(seed uint64) string {
		var b strings.Builder
		if err := faultReport(&b, 48, 72, seed); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(3), render(3)
	if a != b {
		t.Fatalf("same seed, different report:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"fault injection (§6.1/§6.3): seed 3, 72h job on 48 nodes",
		"machine MTBF", "checkpoint every", "injected:", "replay: makespan",
		"useful-work fraction",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("report missing %q:\n%s", want, a)
		}
	}
	if render(4) == a {
		t.Error("different fault seeds produced identical reports")
	}
}

// writeFileWith (the telemetry exporter sink) must be atomic: an
// exporter that fails mid-stream may not leave a truncated artifact —
// the previous file survives untouched and no temp file is left
// behind. This is the regression test for the old os.Create-then-write
// path, which left half a JSON trace on any error.
func TestWriteFileWithIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := writeFileWith(path, func(w io.Writer) error {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("exporter failed")
	if err := writeFileWith(path, func(w io.Writer) error {
		io.WriteString(w, `{"traceEvents":[{"truncated`)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the exporter's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"traceEvents":[]}` {
		t.Fatalf("previous trace corrupted by failed export: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp residue after failed export: %d entries", len(ents))
	}
}

func TestFaultReportRejectsBadShape(t *testing.T) {
	var b strings.Builder
	if err := faultReport(&b, 0, 24, 1); err == nil {
		t.Error("0 nodes: want error")
	}
	if err := faultReport(&b, 96, 0, 1); err == nil {
		t.Error("0 hours: want error")
	}
}

// mhpc trace prints the timeline, profile, findings and communication
// matrix of one traced run, and the matrix accounts for every byte the
// run's communicator sent.
func TestRunTracePrintsAnalysisAndMatrix(t *testing.T) {
	var b strings.Builder
	if err := runTrace(&b, []string{"-nodes", "4", "-steps", "2"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"traced HYDRO-like run: 4 nodes, 2 steps",
		"rank   0 |", "legend:", // timeline
		"imbalance (max/mean compute)",      // profile
		"no inefficiency patterns detected", // findings of a balanced ring
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	_, after, ok := strings.Cut(out, "communication matrix (bytes sent, src rows x dst cols):\n")
	if !ok {
		t.Fatal("no matrix")
	}
	lines := strings.Split(strings.TrimSpace(after), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 4 matrix rows and a total line, got %d lines:\n%s", len(lines), after)
	}
	var sum int64
	for src, line := range lines[:4] {
		row := strings.Fields(line)
		if len(row) != 4 {
			t.Fatalf("matrix row %d has %d columns, want 4: %q", src, len(row), line)
		}
		for dst, f := range row {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			// Each step sends one 64 KiB halo to each ring neighbour.
			if (dst == (src+1)%4 || dst == (src+3)%4) && v < 2*65536 {
				t.Errorf("matrix[%d][%d] = %d, want at least the two steps' halo", src, dst, v)
			}
			sum += v
		}
	}
	var total, msgs int64
	if _, err := fmt.Sscanf(lines[4], "total %d bytes in %d messages", &total, &msgs); err != nil {
		t.Fatalf("total line %q: %v", lines[4], err)
	}
	if sum != total || total <= 0 || msgs <= 0 {
		t.Errorf("matrix sums to %d bytes, Comm.BytesSent is %d (%d messages)", sum, total, msgs)
	}
}

// mhpc hpl prints the §4 run's residual check and Green500 metric.
func TestRunHPLPrintsValidRunAndEfficiency(t *testing.T) {
	var b strings.Builder
	if err := runHPL(&b, []string{"-nodes", "4"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Tibidabo HPL: 4 nodes, N=16384") || !strings.Contains(out, "(valid=true)") {
		t.Errorf("HPL run not reported valid:\n%s", out)
	}
	var mpw float64
	_, rest, _ := strings.Cut(out, "(valid=true)\n")
	if _, err := fmt.Sscanf(rest, "  %f MFLOPS/W", &mpw); err != nil || mpw <= 0 {
		t.Errorf("MFLOPS/W = %v (%v), want positive:\n%s", mpw, err, out)
	}
}
