// Command benchdiff compares two mhpc-bench-snapshot/v1 files (see
// cmd/benchsnap) and fails when the newer one regresses: any
// throughput metric (a unit ending in "/s", e.g. events/s, chunks/s)
// dropping more than -tol (default 10%), or a steady-state benchmark —
// one with zero allocs/op in the baseline — starting to allocate. It
// is the perf-trajectory gate of `make check`: the committed
// BENCH_v5.json must hold the line against the committed BENCH_v4.json
// without re-running a single benchmark, so the gate is deterministic
// on any machine.
//
// Usage:
//
//	go run ./cmd/benchdiff [-tol 0.10] BENCH_v4.json BENCH_v5.json
//
// Benchmarks are matched by name with any trailing "-<GOMAXPROCS>"
// suffix stripped; benchmarks present in only one snapshot are
// informational — listed deterministically (sorted) but never failed —
// because the suite legitimately grows (a benchmark's first snapshot
// has no baseline) and retires entries. Exit status 1 on any
// regression, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type snapshot struct {
	Schema     string        `json:"schema"`
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

const wantSchema = "mhpc-bench-snapshot/v1"

var procSuffix = regexp.MustCompile(`-\d+$`)

func load(path string) (map[string]benchResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if s.Schema != wantSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, wantSchema)
	}
	out := make(map[string]benchResult, len(s.Benchmarks))
	for _, r := range s.Benchmarks {
		out[procSuffix.ReplaceAllString(r.Name, "")] = r
	}
	return out, nil
}

func main() {
	tol := flag.Float64("tol", 0.10, "allowed fractional throughput regression")
	flag.Parse()
	if flag.NArg() != 2 || *tol < 0 || *tol >= 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol 0.10] OLD.json NEW.json")
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(old))
	for n := range old {
		names = append(names, n)
	}
	sort.Strings(names)

	var regressions []string
	for _, name := range names {
		o := old[name]
		n, ok := cur[name]
		if !ok {
			fmt.Printf("%-44s only in %s\n", name, flag.Arg(0))
			continue
		}
		fmt.Printf("%-44s %12.4g -> %-12.4g ns/op (%+.1f%%)\n",
			name, o.NsPerOp, n.NsPerOp, pct(o.NsPerOp, n.NsPerOp))
		for unit, ov := range o.Metrics {
			if !strings.HasSuffix(unit, "/s") {
				continue
			}
			nv, ok := n.Metrics[unit]
			if !ok {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s metric disappeared", name, unit))
				continue
			}
			fmt.Printf("    %-40s %12.4g -> %-12.4g %s (%+.1f%%)\n",
				"", ov, nv, unit, pct(ov, nv))
			if nv < ov*(1-*tol) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s fell %.4g -> %.4g (-%.1f%%, tolerance %.0f%%)",
						name, unit, ov, nv, -pct(ov, nv), *tol*100))
			}
		}
		if o.AllocsPerOp != nil && *o.AllocsPerOp == 0 &&
			n.AllocsPerOp != nil && *n.AllocsPerOp > 0 {
			regressions = append(regressions,
				fmt.Sprintf("%s: steady-state benchmark started allocating (%.0f allocs/op)",
					name, *n.AllocsPerOp))
		}
	}
	// Benchmarks present only in the new snapshot are informational:
	// the suite legitimately grows (e.g. BenchmarkServeZipfCold arriving
	// in v7), and a first appearance has no baseline to regress from.
	// They gate from the *next* snapshot pair onward, once committed.
	var added []string
	for n := range cur {
		if _, ok := old[n]; !ok {
			added = append(added, n)
		}
	}
	sort.Strings(added)
	for _, n := range added {
		fmt.Printf("%-44s new in %s (informational, not gated)\n", n, flag.Arg(1))
	}

	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d regression(s):\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no regressions")
}

// pct returns the relative change from o to n in percent (positive =
// n larger).
func pct(o, n float64) float64 {
	if o == 0 {
		return 0
	}
	return (n - o) / o * 100
}
