package harness

// Resumable task execution: the pool's skip-completed fan-out. When a
// checkpoint ledger is bound to the goroutine that enters a parmap
// (BindLedger — the same ambient-binding design as sim.BindAbort),
// every labelled task first consults the ledger: a committed entry is
// decoded and returned without executing the task (no span, no
// pool.tasks increment — the ckpt.hits counter records the skip), and
// a task that does execute commits its encoded result before the pool
// merges it (ckpt.commits). Because results merge in task-index order
// and every task's RNG is seeded from its label alone, a resumed run
// renders byte-identical output to an uninterrupted one — the
// committed-progress-is-never-recomputed invariant the resume smoke
// pins.
//
// Only task result types that round-trip losslessly through JSON are
// checkpointed: []string (the sub-run row shape) and *Table (the
// experiment shape). Anything else executes normally — checkpointing
// is an optimisation, never a correctness requirement, and a ledger
// that fails to commit is ignored for the same reason.

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
)

// TaskLedger is the committed-progress store the pool consults. It is
// an interface (implemented by store.Ledger) so the harness does not
// depend on the persistence layer. Implementations must be safe for
// concurrent use.
type TaskLedger interface {
	// Lookup returns the committed payload for a task label, if any.
	Lookup(label string) ([]byte, bool)
	// Commit durably records a completed task's payload.
	Commit(label string, data []byte) error
}

// ledgerReg is the goroutine-id-keyed registry of ambient ledgers —
// the BindAbort pattern: pools read it once per parmap call, never
// per task, so a mutex-protected map is plenty.
var ledgerReg struct {
	mu sync.Mutex
	m  map[int64]TaskLedger
}

// BindLedger associates the calling goroutine with l: parmap calls
// entered on this goroutine (and on the workers they spawn, which
// inherit the binding like the abort flag) consult l before running
// labelled tasks and commit results into it. It returns an unbind
// function that must run on the same goroutine when the run finishes;
// bindings do not nest — binding again replaces the entry.
func BindLedger(l TaskLedger) (unbind func()) {
	id := poolGid()
	ledgerReg.mu.Lock()
	if ledgerReg.m == nil {
		ledgerReg.m = map[int64]TaskLedger{}
	}
	ledgerReg.m[id] = l
	ledgerReg.mu.Unlock()
	return func() {
		ledgerReg.mu.Lock()
		delete(ledgerReg.m, id)
		ledgerReg.mu.Unlock()
	}
}

// LabelExperiment returns the id of the experiment that owns a task
// label, or "" for a label of another shape. The pool labels every
// checkpointed task "<category>/<name>", and every name starts with
// the id of the experiment that runs it: "experiment/fig6" is the
// whole table, "subrun/fig6/n=48" one of its sub-runs. A ledger
// shared by several runs routes each label to its owner by this id.
func LabelExperiment(label string) string {
	_, rest, ok := strings.Cut(label, "/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// BoundLedger returns the ledger bound to the calling goroutine, or
// nil. Exported so run drivers (mhpcd's stub runners in tests, say)
// can reach the ambient ledger the server bound for them.
func BoundLedger() TaskLedger {
	ledgerReg.mu.Lock()
	l := ledgerReg.m[poolGid()]
	ledgerReg.mu.Unlock()
	return l
}

// poolGid returns the current goroutine's id, parsed from the header
// line of its stack trace — the same technique as sim's private gid.
// Costly (microseconds), called once per parmap entry and once per
// worker, never per task.
func poolGid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// ckptEncode serialises one checkpointable task result. Only the
// shapes that JSON round-trips losslessly are supported; everything
// else reports ok=false and is simply not checkpointed.
func ckptEncode(v any) ([]byte, bool) {
	switch v.(type) {
	case []string, *Table:
		data, err := json.Marshal(v)
		if err != nil {
			return nil, false
		}
		return data, true
	}
	return nil, false
}

// ckptDecode reverses ckptEncode for the pool's result type. A decode
// failure (schema drift, a damaged payload that still passed the
// ledger's checksums) reports ok=false and the task re-executes —
// last-wins commit semantics make the re-run overwrite the bad entry.
func ckptDecode[T any](data []byte) (v T, ok bool) {
	switch p := any(&v).(type) {
	case *[]string:
		if json.Unmarshal(data, p) != nil {
			return v, false
		}
		return v, true
	case **Table:
		var t Table
		if json.Unmarshal(data, &t) != nil {
			return v, false
		}
		*p = &t
		return v, true
	}
	return v, false
}
