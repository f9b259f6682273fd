// Package harness is the experiment driver of the reproduction: one
// registered experiment per table and figure of the paper, each
// producing a text table with the same rows/series the paper reports.
// The cmd/mhpc binary and the top-level benchmarks are thin wrappers
// around this registry; EXPERIMENTS.md records paper-vs-measured for
// every entry.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Paper   string // which paper artefact this regenerates
	Notes   []string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells. When telemetry is
// active, each appended row bumps the harness.table_rows counter — the
// live "partial table" progress signal a stream consumer (SSE, mhpc
// -progress) sees while an experiment is still computing.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("harness: row has %d cells, table %q has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
	obs.Active().Counter("harness.table_rows").Add(1)
}

// AddRowf appends a row formatting each value with its verb.
func (t *Table) AddRowf(format string, vals ...any) {
	t.AddRow(strings.Split(fmt.Sprintf(format, vals...), "|")...)
}

// Render writes the table as aligned fixed-width text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Paper != "" {
		if _, err := fmt.Fprintf(w, "   reproduces: %s\n", t.Paper); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values (quotes cells that
// contain commas).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	rows := append([][]string{t.Columns}, t.Rows...)
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks node counts and step counts so the whole registry
	// runs in seconds (used by tests and the default CLI mode).
	Quick bool
	// Jobs bounds the worker pool used by RunAll, Tables, and the
	// per-node-count sub-runs inside the cluster experiments. 0 or 1
	// is the exact legacy serial path; N > 1 runs up to N tasks
	// concurrently. Output is byte-identical for every value of Jobs:
	// each task owns its engine and RNG, and results merge in task
	// order (see pool.go).
	Jobs int
}

// Experiment is one registered table/figure generator.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Run   func(Options) *Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// paperOrder is the canonical listing order: the order artefacts
// appear in the paper.
var paperOrder = []string{
	"fig1", "fig2a", "fig2b", "table1", "table2", "fig3", "fig4", "fig5",
	"table3", "fig6", "green500", "fig7", "latpenalty", "table4",
	// extensions: the paper's lessons-learned and projections, implemented
	"projection", "reliability", "iobottleneck", "energycompare", "ablation-openmx",
	"bisection", "governor", "microserver", "accel", "green500-context", "stability",
	"balance", "fabric", "hpl-grid", "gromacs-inputs", "fig7sweep", "hetero", "placement", "metering", "ompss",
	"faultsweep",
}

// Experiments returns all registered experiments in paper order;
// experiments without a listed position sort last in registration
// order.
func Experiments() []Experiment {
	pos := make(map[string]int, len(paperOrder))
	for i, id := range paperOrder {
		pos[id] = i
	}
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		pi, iok := pos[out[i].ID]
		pj, jok := pos[out[j].ID]
		if iok && jok {
			return pi < pj
		}
		return iok && !jok
	})
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// RunAll executes every experiment and renders the results to w in
// registry (paper) order. With opt.Jobs > 1 the experiments execute on
// a bounded worker pool but the rendered stream is still byte-identical
// to a serial run: tables are merged in registry order, not completion
// order. Equivalent to RunAllContext with a background context.
func RunAll(w io.Writer, opt Options) error {
	return RunAllContext(context.Background(), w, opt)
}

// RunAllContext is RunAll bounded by ctx: cancelling the context (or
// exceeding its deadline) aborts the in-flight experiments at their
// next simulation event or Monte-Carlo chunk, skips the rest, tears
// down all task goroutines, and returns ctx's error. Nothing is
// rendered to w on a cancelled run — output is all-or-nothing, so an
// uncancelled run's stream stays byte-identical to RunAll's at every
// Jobs value.
func RunAllContext(ctx context.Context, w io.Writer, opt Options) error {
	tabs, err := runExperiments(ctx, Experiments(), opt)
	if err != nil {
		return err
	}
	for _, tab := range tabs {
		if err := tab.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// Tables executes the named experiments (in the given order, which is
// preserved in the result) on the Options worker pool. It fails before
// running anything if any id is unknown. Equivalent to TablesContext
// with a background context.
func Tables(ids []string, opt Options) ([]*Table, error) {
	return TablesContext(context.Background(), ids, opt)
}

// TablesContext is Tables bounded by ctx, with the same cancellation
// contract as RunAllContext: on cancellation no tables are returned
// and the context's error surfaces; a run that completed before the
// cancel is unaffected.
func TablesContext(ctx context.Context, ids []string, opt Options) ([]*Table, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return runExperiments(ctx, exps, opt)
}

// runExperiments is the shared guarded fan-out under RunAllContext and
// TablesContext: it ties a fresh abort flag to ctx, binds it to the
// calling goroutine so the pool workers (and every engine built inside
// the tasks) inherit it, and converts the pool's failure modes into
// errors — ctx.Err() for cancellation, a *TaskPanicError for a
// panicking experiment.
func runExperiments(ctx context.Context, exps []Experiment, opt Options) ([]*Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	flag := sim.NewAbortFlag()
	stop := flag.WatchContext(ctx)
	defer stop()
	defer sim.BindAbort(flag)()
	tabs, err := parmapErr("experiment", func(i int) string { return exps[i].ID },
		opt.Jobs, len(exps), func(i int) *Table {
			return exps[i].Run(opt)
		})
	if err != nil {
		// Surface cancellation as the bare cause (context.Canceled /
		// DeadlineExceeded) rather than the sim-level wrapper.
		var ab *sim.AbortError
		if errors.As(err, &ab) && ab.Err != nil {
			return nil, ab.Err
		}
		return nil, err
	}
	return tabs, nil
}
