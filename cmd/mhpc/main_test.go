package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilehpc/internal/core"
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
	if _, err := core.ParseJobs(defaultJobsSpec()); err == nil {
		t.Error("garbage MHPC_PARALLEL must fail core.ParseJobs")
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
