package main

// CPU attribution and span output of a traced run. Each traced child
// writes a runtime/pprof CPU profile of its rep; the parent merges them
// with `go tool pprof -traces` and charges every sample to a layer.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// pkgLayer maps a mobilehpc/internal package (its first path element)
// to the per-layer metric its CPU share reports under. Packages not
// listed count as other.cpu_frac.
var pkgLayer = map[string]string{
	"sim":          "sim.cpu_frac",
	"mpi":          "mpi.cpu_frac",
	"interconnect": "interconnect.cpu_frac",
	"apps":         "apps.cpu_frac",
	"linalg":       "linalg.cpu_frac",
	"faults":       "faults.cpu_frac",
	"reliability":  "faults.cpu_frac",
}

// cpuLayers lists every layer a sample can be charged to; the shares
// over them sum to 1.
var cpuLayers = []string{
	"sim.cpu_frac", "mpi.cpu_frac", "interconnect.cpu_frac", "apps.cpu_frac",
	"linalg.cpu_frac", "faults.cpu_frac", "runtime.sched_cpu_frac",
	"runtime.gc_cpu_frac", "other.cpu_frac",
}

// cpuShares merges the CPU profiles and returns each layer's share of
// the samples (nil without profiles).
func cpuShares(ctx context.Context, profiles []string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return nil, nil
	}
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return attributeTraces(string(out))
}

// attributeTraces reduces `go tool pprof -traces` text to CPU shares.
// A sample goes to the innermost mobilehpc/internal/<pkg> frame of its
// stack. A stack with none goes to runtime.gc_cpu_frac when it is a
// garbage-collector stack, to runtime.sched_cpu_frac when every frame
// is in the runtime (goroutine hand-offs between simulated processes
// land here), and to other.cpu_frac otherwise.
func attributeTraces(text string) (map[string]float64, error) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[classify(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			// The first line of a sample: "<value>   <innermost frame>".
			v, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value = v
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// classify names the layer a stack (innermost frame first) is charged to.
func classify(frames []string) string {
	const internal = "mobilehpc/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internal); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if l, ok := pkgLayer[pkg]; ok {
				return l
			}
			return "other.cpu_frac"
		}
	}
	runtimeOnly := true
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gc"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.markroot"),
			strings.HasPrefix(f, "runtime.scanobject"), f == "runtime._GC":
			return "runtime.gc_cpu_frac"
		case !strings.HasPrefix(f, "runtime."):
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime.sched_cpu_frac"
	}
	return "other.cpu_frac"
}

// mergeSpans joins the Chrome traces the traced children wrote into one
// file at dst: child i becomes process i+1, shifted by offsets[i] (its
// start relative to the bench's), so the reps line up on one timeline.
func mergeSpans(dst string, files []string, offsets []time.Duration) error {
	var events []map[string]any
	for i, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, ev := range tr.TraceEvents {
			ev["pid"] = i + 1
			if ts, ok := ev["ts"].(float64); ok {
				ev["ts"] = ts + float64(offsets[i].Microseconds())
			}
			if ev["name"] == "process_name" {
				ev["args"] = map[string]any{"name": fmt.Sprintf("rep %d (%s)", i, path)}
			}
			events = append(events, ev)
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}
