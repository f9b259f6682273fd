package main

// The bound comparator: "bench compare BASE NEW" reads two files of
// result lines (the last stdout line of each run, one run per line,
// same workload) and checks every end-to-end metric against the bound
// BENCHMARK.json fixes for it. It prints each metric's median and
// spread on both sides and exits 1 when a metric regressed or when a
// spread is wider than its bound, the two ways a set of runs fails
// the benchmark's acceptance.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// floors are absolute changes too small to count as a regression
// whatever their share of the base: a few milliseconds of process
// start-up is scheduler jitter, not a slower set-up.
var floors = map[string]float64{
	"setup_s": 0.005,
}

// boundDef is one end_to_end entry of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the comparator reads.
type benchmarkSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// regressed reports whether next is worse than base by more than
// bound (a share of base) and by more than floor (absolute).
func regressed(base, next, bound, floor float64, higherBetter bool) bool {
	worse := next - base
	if higherBetter {
		worse = -worse
	}
	return worse > bound*base && worse > floor
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (median, frac float64) {
	q1, q2, q3 := pyQuartiles(xs)
	if q2 == 0 {
		return 0, 0
	}
	return q2, (q3 - q1) / q2
}

// readResults parses one result object per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
	return rs, sc.Err()
}

// compareMain implements "bench compare BASE NEW" and returns the exit
// code.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench compare: want BASE NEW (files of result lines)")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	var sides [2][]result
	for i, path := range args {
		if sides[i], err = readResults(path); err != nil || len(sides[i]) == 0 {
			fmt.Fprintf(os.Stderr, "bench compare: %s: no results (%v)\n", path, err)
			return 1
		}
	}
	ok := true
	fmt.Fprintf(w, "%-14s %12s %7s %12s %7s %7s  %s\n", "metric", "base", "spread", "new", "spread", "change", "verdict")
	for _, d := range spec.EndToEnd {
		var med, spr [2]float64
		for i, rs := range sides {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.Metrics[d.Name].Value)
			}
			med[i], spr[i] = spread(xs)
		}
		var verdicts []string
		if regressed(med[0], med[1], d.Bound, floors[d.Name], d.Better == "higher") {
			verdicts = append(verdicts, "REGRESSED")
		}
		if d.Name != "setup_s" && max(spr[0], spr[1]) > d.Bound {
			verdicts = append(verdicts, "NOISY")
		}
		if verdicts == nil {
			verdicts = []string{"ok"}
		} else {
			ok = false
		}
		change := 0.0
		if med[0] != 0 {
			change = med[1]/med[0] - 1
		}
		fmt.Fprintf(w, "%-14s %12.4f %6.1f%% %12.4f %6.1f%% %+6.1f%%  %s (bound %.0f%%)\n",
			d.Name, med[0], 100*spr[0], med[1], 100*spr[1], 100*change,
			strings.Join(verdicts, ","), 100*d.Bound)
	}
	if !ok {
		return 1
	}
	return 0
}
