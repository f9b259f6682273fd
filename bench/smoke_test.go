package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// BENCHMARK.json must list exactly the metrics the benchmark prints,
// with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, d := range spec.EndToEnd {
		e2e = append(e2e, metricDef{d.Name, d.Unit})
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", d.Name, d.Bound, d.Better)
		}
	}
	for _, d := range spec.PerLayer {
		layer = append(layer, metricDef{d.Name, d.Unit})
	}
	for _, c := range []struct {
		what      string
		json, src []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.json) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.what, len(c.json), len(c.src))
			continue
		}
		for i := range c.src {
			if c.json[i] != c.src[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark prints %v", c.what, i, c.json[i], c.src[i])
			}
		}
	}
}

// TestBenchSmoke runs every workload for one second (about 1/20 of a
// benchmark run), untraced and traced, through the real binary from
// the repository root, and validates the result line. It compiles the
// benchmark and mhpcd and forks servers, so it is gated behind
// MHPC_BENCH_SMOKE=1.
func TestBenchSmoke(t *testing.T) {
	if os.Getenv("MHPC_BENCH_SMOKE") != "1" {
		t.Skip("set MHPC_BENCH_SMOKE=1 to run every workload end to end")
	}
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
				cmd.Dir = ".."
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res map[string]json.RawMessage
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatalf("last line is not a JSON object: %v\n%s", err, out)
				}
				if len(res) != 4 {
					t.Errorf("result keys %v, want correct, attempted, failed, metrics", res)
				}
				var r result
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := r.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace == "1" && name == "hpl-192" {
					var sum, top float64
					for _, l := range cpuLayers {
						sum += r.Metrics[l].Value
						top = max(top, r.Metrics[l].Value)
					}
					if sum < 0.99 || sum > 1.01 || r.Metrics["sim.cpu_frac"].Value != top {
						t.Errorf("hpl-192 CPU shares sum to %v, sim %v, largest %v; want 1 with sim largest",
							sum, r.Metrics["sim.cpu_frac"].Value, top)
					}
				}
			})
		}
	}
}
