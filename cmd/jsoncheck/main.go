// Command jsoncheck validates that each argument file parses as JSON.
// It exists for the telemetry-smoke and faults-smoke gates in the
// Makefile: the Chrome trace and run manifest that `mhpc all
// -trace-out ... -report ...` emits must be loadable JSON, and a shell
// pipeline needs a tool with no dependencies beyond the Go toolchain
// to assert that.
//
// Usage:
//
//	go run ./cmd/jsoncheck [-counters a,b,c] [-max-bytes N] file.json [file2.json ...]
//	go run ./cmd/jsoncheck -schema
//
// Any file that declares a "schema" of mhpc-run-manifest/* is
// additionally validated as a run manifest: the schema version must be
// one this toolchain knows (-schema lists them), and every embedded
// histogram summary must satisfy the layout invariants — bucket bounds
// strictly increasing, bucket counts positive, and the total count
// equal to the sum of the buckets plus the overflow.
//
// With -counters, each file must additionally be a run manifest whose
// "counters" object contains every named counter with a value > 0 —
// the faults-smoke gate uses this to prove injected fault events
// actually reached the manifest.
//
// -max-bytes caps the accepted file size (default 64 MiB), so a
// runaway trace cannot make the smoke gate swallow gigabytes.
//
// Exits non-zero naming the first file that is missing, oversized,
// malformed, schema-invalid, or missing a required counter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"mobilehpc/internal/core"
	"mobilehpc/internal/obs"
)

func main() {
	counters := flag.String("counters", "",
		"comma-separated counter names each manifest must carry with value > 0")
	maxBytes := flag.Int("max-bytes", 1<<26,
		"maximum file size in bytes accepted per argument")
	schemas := flag.Bool("schema", false,
		"list the run-manifest schema versions this toolchain accepts and exit")
	flag.Parse()
	if *schemas {
		for _, s := range obs.ManifestSchemas {
			fmt.Println(s)
		}
		return
	}
	if err := core.PositiveInt("max-bytes", *maxBytes); err != nil {
		fmt.Fprintf(os.Stderr, "jsoncheck: %v\n", err)
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: jsoncheck [-counters a,b,c] [-max-bytes N] file.json [file2.json ...]")
		os.Exit(2)
	}
	var required []string
	if *counters != "" {
		required = strings.Split(*counters, ",")
	}
	for _, path := range flag.Args() {
		if fi, err := os.Stat(path); err == nil && fi.Size() > int64(*maxBytes) {
			fmt.Fprintf(os.Stderr, "jsoncheck: %s: %d bytes exceeds -max-bytes %d\n",
				path, fi.Size(), *maxBytes)
			os.Exit(1)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsoncheck: %v\n", err)
			os.Exit(1)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			fmt.Fprintf(os.Stderr, "jsoncheck: %s: invalid JSON: %v\n", path, err)
			os.Exit(1)
		}
		if err := checkManifest(data); err != nil {
			fmt.Fprintf(os.Stderr, "jsoncheck: %s: %v\n", path, err)
			os.Exit(1)
		}
		if err := checkCounters(data, required); err != nil {
			fmt.Fprintf(os.Stderr, "jsoncheck: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("jsoncheck: %s ok (%d bytes)\n", path, len(data))
	}
}

// checkManifest validates documents that declare an mhpc-run-manifest
// schema: the version must be known, and every histogram summary must
// satisfy the layout invariants. Documents without such a schema pass
// untouched (jsoncheck also gates Chrome traces and arbitrary JSON).
func checkManifest(data []byte) error {
	var doc struct {
		Schema     string                           `json:"schema"`
		Histograms map[string]obs.ManifestHistogram `json:"histograms"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil // not an object-shaped document; plain validity already passed
	}
	if !strings.HasPrefix(doc.Schema, "mhpc-run-manifest/") {
		return nil
	}
	known := false
	for _, s := range obs.ManifestSchemas {
		known = known || s == doc.Schema
	}
	if !known {
		return fmt.Errorf("unknown manifest schema %q (known: %s)",
			doc.Schema, strings.Join(obs.ManifestSchemas, ", "))
	}
	for name, h := range doc.Histograms {
		if err := checkHistogram(h); err != nil {
			return fmt.Errorf("histogram %q: %v", name, err)
		}
	}
	return nil
}

// checkHistogram enforces the ManifestHistogram invariants: strictly
// increasing bucket bounds, positive bucket counts, non-negative
// overflow, and count == sum of buckets + overflow.
func checkHistogram(h obs.ManifestHistogram) error {
	prev := math.Inf(-1)
	var total int64
	for _, b := range h.Buckets {
		if b.LE <= prev {
			return fmt.Errorf("bucket bounds not strictly increasing at le=%v", b.LE)
		}
		prev = b.LE
		if b.Count <= 0 {
			return fmt.Errorf("bucket le=%v has count %d, want > 0", b.LE, b.Count)
		}
		total += b.Count
	}
	if h.Overflow < 0 {
		return fmt.Errorf("negative overflow %d", h.Overflow)
	}
	total += h.Overflow
	if total != h.Count {
		return fmt.Errorf("count %d != bucket sum %d + overflow %d", h.Count, total-h.Overflow, h.Overflow)
	}
	return nil
}

// checkCounters asserts every required counter exists with a positive
// value in the manifest's "counters" object. A nil/empty requirement
// list always passes.
func checkCounters(manifest []byte, required []string) error {
	if len(required) == 0 {
		return nil
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(manifest, &doc); err != nil {
		return fmt.Errorf("not a run manifest: %v", err)
	}
	if doc.Counters == nil {
		return fmt.Errorf("no \"counters\" object in manifest")
	}
	for _, name := range required {
		name = strings.TrimSpace(name)
		v, ok := doc.Counters[name]
		if !ok {
			return fmt.Errorf("counter %q missing from manifest", name)
		}
		if v <= 0 {
			return fmt.Errorf("counter %q = %d, want > 0", name, v)
		}
	}
	return nil
}
