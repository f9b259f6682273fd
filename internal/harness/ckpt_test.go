package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mobilehpc/internal/obs"
)

// memLedger is a test TaskLedger: a plain map plus an execution log.
type memLedger struct {
	mu      sync.Mutex
	m       map[string][]byte
	commits []string
}

func newMemLedger() *memLedger { return &memLedger{m: map[string][]byte{}} }

func (l *memLedger) Lookup(label string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, ok := l.m[label]
	return data, ok
}

func (l *memLedger) Commit(label string, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m[label] = data
	l.commits = append(l.commits, label)
	return nil
}

// TestPoolLedgerSkipsCommitted: with a bound ledger, a second parmap
// over the same labels returns identical results without executing a
// single task — committed progress is never recomputed.
func TestPoolLedgerSkipsCommitted(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		led := newMemLedger()
		unbind := BindLedger(led)
		var execs int64
		var mu sync.Mutex
		task := func(i int) []string {
			mu.Lock()
			execs++
			mu.Unlock()
			return []string{"row", string(rune('a' + i))}
		}
		name := func(i int) string { return "t" + string(rune('a'+i)) }

		first, err := parmapErr("subrun", name, jobs, 6, task)
		if err != nil {
			t.Fatal(err)
		}
		if execs != 6 || len(led.commits) != 6 {
			t.Fatalf("jobs=%d first pass: execs=%d commits=%d, want 6/6", jobs, execs, len(led.commits))
		}

		execs = 0
		second, err := parmapErr("subrun", name, jobs, 6, task)
		unbind()
		if err != nil {
			t.Fatal(err)
		}
		if execs != 0 {
			t.Fatalf("jobs=%d resume pass executed %d tasks, want 0", jobs, execs)
		}
		for i := range first {
			if strings.Join(first[i], "|") != strings.Join(second[i], "|") {
				t.Fatalf("jobs=%d result %d differs: %v vs %v", jobs, i, first[i], second[i])
			}
		}
	}
}

// TestPoolLedgerPartialResume: only some labels committed — exactly
// the missing ones execute, and the merged output is identical to an
// uninterrupted run.
func TestPoolLedgerPartialResume(t *testing.T) {
	led := newMemLedger()
	name := func(i int) string { return "t" + string(rune('a'+i)) }
	task := func(i int) []string { return []string{"v", string(rune('0' + i))} }

	full, err := parmapErr("subrun", name, 2, 5, task)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-commit tasks 0, 2, 4 as if a killed run got that far.
	unbind := BindLedger(led)
	defer unbind()
	for _, i := range []int{0, 2, 4} {
		raw, ok := ckptEncode(any(task(i)))
		if !ok {
			t.Fatal("encode failed")
		}
		led.Commit("subrun/"+name(i), raw)
	}
	var execd []string
	var mu sync.Mutex
	resumed, err := parmapErr("subrun", name, 2, 5, func(i int) []string {
		mu.Lock()
		execd = append(execd, name(i))
		mu.Unlock()
		return task(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := strings.Join(execd, ",")
	mu.Unlock()
	if len(execd) != 2 || strings.Contains(got, "ta") || strings.Contains(got, "tc") || strings.Contains(got, "te") {
		t.Fatalf("resume executed %q, want exactly the uncommitted tb,td", got)
	}
	for i := range full {
		if strings.Join(full[i], "|") != strings.Join(resumed[i], "|") {
			t.Fatalf("result %d differs after resume: %v vs %v", i, full[i], resumed[i])
		}
	}
}

// TestPoolLedgerDecodeFailureReruns: a committed payload that no
// longer decodes (schema drift) must fall back to executing the task
// and overwrite the bad entry.
func TestPoolLedgerDecodeFailureReruns(t *testing.T) {
	led := newMemLedger()
	led.m["subrun/x"] = []byte("{not json")
	unbind := BindLedger(led)
	defer unbind()
	execs := 0
	out, err := parmapErr("subrun", func(int) string { return "x" }, 1, 1, func(i int) []string {
		execs++
		return []string{"fresh"}
	})
	if err != nil {
		t.Fatal(err)
	}
	if execs != 1 || out[0][0] != "fresh" {
		t.Fatalf("execs=%d out=%v, want re-execution", execs, out)
	}
	if raw, _ := led.Lookup("subrun/x"); string(raw) != `["fresh"]` {
		t.Fatalf("bad entry not overwritten: %q", raw)
	}
}

// TestPoolLedgerCountsSkipsNotTasks: pool.tasks counts only executed
// tasks; skips land in ckpt.hits and commits in ckpt.commits — the
// counter split the resume smoke asserts on.
func TestPoolLedgerCountsSkipsNotTasks(t *testing.T) {
	col := obs.New()
	obs.SetActive(col)
	defer obs.SetActive(nil)

	led := newMemLedger()
	unbind := BindLedger(led)
	defer unbind()
	name := func(i int) string { return "t" + string(rune('a'+i)) }
	task := func(i int) []string { return []string{"v"} }
	if _, err := parmapErr("subrun", name, 2, 4, task); err != nil {
		t.Fatal(err)
	}
	if _, err := parmapErr("subrun", name, 2, 4, task); err != nil {
		t.Fatal(err)
	}
	if got := col.Counter("pool.tasks").Value(); got != 4 {
		t.Errorf("pool.tasks = %d, want 4 (skips must not count as executions)", got)
	}
	if got := col.Counter("ckpt.hits").Value(); got != 4 {
		t.Errorf("ckpt.hits = %d, want 4", got)
	}
	if got := col.Counter("ckpt.commits").Value(); got != 4 {
		t.Errorf("ckpt.commits = %d, want 4", got)
	}
	if got := col.Gauge("pool.queued").Current(); got != 0 {
		t.Errorf("pool.queued = %d, want 0 after both passes", got)
	}
}

// TestTablesResumeByteIdentical drives the real registry: a quick
// fig6+green500 run committing into a ledger, then a resumed run from
// that ledger, must render byte-identical output at experiment level
// (table hits short-circuit the whole experiment) AND at sub-run
// level (experiment entries withheld, sub-run entries served).
func TestTablesResumeByteIdentical(t *testing.T) {
	ids := []string{"fig6", "green500"}
	opt := Options{Quick: true, Jobs: 2}
	render := func(tabs []*Table) string {
		var buf bytes.Buffer
		for _, tab := range tabs {
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	golden, err := Tables(ids, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := render(golden)

	led := newMemLedger()
	unbind := BindLedger(led)
	first, err := Tables(ids, opt)
	unbind()
	if err != nil {
		t.Fatal(err)
	}
	if render(first) != want {
		t.Fatal("ledger-committing run diverged from plain run")
	}
	if len(led.commits) == 0 {
		t.Fatal("no commits recorded")
	}

	// Full resume: experiment-level hits short-circuit everything.
	unbind = BindLedger(led)
	second, err := Tables(ids, opt)
	unbind()
	if err != nil {
		t.Fatal(err)
	}
	if render(second) != want {
		t.Fatal("experiment-level resume diverged")
	}

	// Sub-run-level resume: withhold the experiment tables so the
	// experiments re-merge from committed sub-run rows.
	sub := newMemLedger()
	for label, data := range led.m {
		if !strings.HasPrefix(label, "experiment/") {
			sub.m[label] = data
		}
	}
	unbind = BindLedger(sub)
	third, err := Tables(ids, opt)
	unbind()
	if err != nil {
		t.Fatal(err)
	}
	if render(third) != want {
		t.Fatal("sub-run-level resume diverged from uninterrupted run")
	}
}

// TestLabelExperiment pins the label grammar the helper parses.
func TestLabelExperiment(t *testing.T) {
	for label, want := range map[string]string{
		"experiment/fig6":                 "fig6",
		"subrun/fig6/n=48":                "fig6",
		"subrun/fig7sweep/lat/64B":        "fig7sweep",
		"subrun/hetero/uniform":           "hetero",
		"subrun/faultsweep/mtbf=1/x2/deg": "faultsweep",
		"fig6":                            "",
		"":                                "",
	} {
		if got := LabelExperiment(label); got != want {
			t.Errorf("LabelExperiment(%q) = %q, want %q", label, got, want)
		}
	}
}

// TestEveryLabelNamesItsExperiment: a ledger shared by the runs of a
// batched sweep routes each checkpoint label to the run that owns it
// by LabelExperiment, so every label any experiment commits must name
// that experiment. Each experiment runs solo under a recording
// ledger — the quick registry always, the full one outside -short.
func TestEveryLabelNamesItsExperiment(t *testing.T) {
	sizes := []bool{true}
	if !testing.Short() {
		sizes = append(sizes, false)
	}
	for _, quick := range sizes {
		labels := 0
		for _, e := range Experiments() {
			led := newMemLedger()
			unbind := BindLedger(led)
			_, err := Tables([]string{e.ID}, Options{Quick: quick, Jobs: 2})
			unbind()
			if err != nil {
				t.Fatalf("quick=%v %s: %v", quick, e.ID, err)
			}
			if len(led.commits) == 0 {
				t.Errorf("quick=%v %s committed nothing", quick, e.ID)
			}
			for _, label := range led.commits {
				if got := LabelExperiment(label); got != e.ID {
					t.Errorf("quick=%v %s committed %q, owned by %q", quick, e.ID, label, got)
				}
			}
			labels += len(led.commits)
		}
		t.Logf("quick=%v: %d labels over %d experiments", quick, labels, len(Experiments()))
	}
}
