package store

// Partial-result checkpoint ledgers (schema mhpc-ckpt/v1): the
// persistence layer under resumable jobs. While the main store holds
// only *finished* run results, a Ledger records the individual task
// results (sub-runs, whole experiment tables) a run commits as it
// goes, so a cancelled, failed, or killed run can restart from its
// committed progress instead of from t=0.
//
// One ledger is one append-only file per run key:
//
//	<dir>/<runKey>.ckpt
//
// living in its own namespace (mhpcd puts dir under
// <store-dir>/partials) so the main store's orphan sweep — which
// deletes unknown files in <store-dir>/entries — never touches it.
//
// Each committed entry is one newline-terminated line:
//
//	mhpc-ckpt/v1 <labelhash> <size> <sha256hex> <payload-b64> <crc32hex>
//
// where labelhash is the first 16 hex characters of the label's
// SHA-256 (labels are free-form task paths like "subrun/fig6/n=48"),
// size and sha256hex describe the decoded payload, payload-b64 is the
// standard-base64 payload ("-" when empty), and the trailing crc32
// (IEEE) covers the five preceding fields exactly as written: the
// store's index journal and this ledger share one checked-line codec
// (journal.go), so replay has the same damage rules: a short,
// malformed, mischecksummed, or torn line is dropped and replay
// continues — committed lines before a kill always survive. Within
// one file the last valid line for a label wins, so a re-executed
// task (say after a decode failure) simply overwrites its entry.
//
// Commits are fsynced before they are reported durable: a SIGKILL
// right after Commit returns can only tear *later* lines.

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
)

// ckptMagic heads every checkpoint-ledger line.
const ckptMagic = "mhpc-ckpt/v1"

// Ledger is the committed-progress journal of one run: a label-keyed
// map of task payloads, durably appended to <dir>/<runKey>.ckpt (or
// held in memory only when opened with an empty dir). All methods are
// safe for concurrent use — pool workers commit from many goroutines.
type Ledger struct {
	path string // "" = memory-only

	hits    atomic.Int64 // Lookup hits this session
	commits atomic.Int64 // Commits this session

	mu      sync.Mutex
	f       *os.File          // nil in memory-only mode or after Close
	entries map[string][]byte // labelhash -> payload
	prior   int               // entries recovered from disk at open
}

// labelHash collapses a free-form task label into the fixed journal
// token: the first 16 hex characters of its SHA-256.
func labelHash(label string) string {
	h := sha256.Sum256([]byte(label))
	return hex.EncodeToString(h[:8])
}

// ckptLine renders one checked ledger line for a payload.
func ckptLine(lh string, data []byte) []byte {
	b64 := "-"
	if len(data) > 0 {
		b64 = base64.StdEncoding.EncodeToString(data)
	}
	return checkedLine(ckptMagic, lh, strconv.Itoa(len(data)), sumHexOf(data), b64)
}

// parseCkptLine decodes one line (without its newline), returning the
// label hash and payload. ok=false for anything that does not
// round-trip through ckptLine — the torn-tail shapes a kill leaves.
func parseCkptLine(line string) (lh string, data []byte, ok bool) {
	f, ok := parseChecked(line, 5)
	if !ok || f[0] != ckptMagic {
		return "", nil, false
	}
	lh = f[1]
	if len(lh) != 16 || !validKey(lh) {
		return "", nil, false
	}
	size, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil || size < 0 {
		return "", nil, false
	}
	if len(f[3]) != 64 || !validKey(f[3]) {
		return "", nil, false
	}
	if f[4] != "-" {
		data, err = base64.StdEncoding.DecodeString(f[4])
		if err != nil {
			return "", nil, false
		}
	}
	if int64(len(data)) != size || sumHexOf(data) != f[3] {
		return "", nil, false
	}
	return lh, data, true
}

// maxCkptLine bounds one ledger line during replay. Payloads are
// rendered tables and row slices — kilobytes — so a multi-megabyte
// line is corruption, not data.
const maxCkptLine = 8 << 20

// OpenLedger opens (creating or recovering) the checkpoint ledger for
// runKey under dir. dir == "" selects a memory-only ledger: commits
// survive within the process (cancel + resubmit) but not a kill.
// runKey must be a valid content key (lowercase hex, at most 64
// characters) since it names the file. Recovery drops torn or
// malformed lines and keeps the last valid entry per label.
func OpenLedger(dir, runKey string) (*Ledger, error) {
	l := &Ledger{entries: map[string][]byte{}}
	if dir == "" {
		return l, nil
	}
	if !validKey(runKey) {
		return nil, fmt.Errorf("store: invalid ledger key %q", runKey)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l.path = filepath.Join(dir, runKey+".ckpt")
	if _, err := replayLines(l.path, maxCkptLine, func(line string) bool {
		lh, data, ok := parseCkptLine(line)
		if ok {
			l.entries[lh] = data
		}
		return ok
	}); err != nil {
		return nil, err
	}
	l.prior = len(l.entries)
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l.f = f
	return l, nil
}

// Lookup returns the committed payload for label, if any. A hit is
// counted toward Hits — the "skipped task" signal resume telemetry
// reports.
func (l *Ledger) Lookup(label string) ([]byte, bool) {
	l.mu.Lock()
	data, ok := l.entries[labelHash(label)]
	l.mu.Unlock()
	if ok {
		l.hits.Add(1)
	}
	return data, ok
}

// Commit durably records label's payload: the ledger line is appended
// and fsynced before Commit returns, so committed progress survives a
// SIGKILL. Committing a label again overwrites its entry (last valid
// line wins on recovery too).
func (l *Ledger) Commit(label string, data []byte) error {
	lh := labelHash(label)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if _, err := l.f.Write(ckptLine(lh, data)); err != nil {
			return fmt.Errorf("store: ledger append: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("store: ledger sync: %w", err)
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	l.entries[lh] = cp
	l.commits.Add(1)
	return nil
}

// Len returns the number of committed entries currently held.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Prior returns how many entries were recovered from disk when the
// ledger was opened — nonzero means this run is a resume.
func (l *Ledger) Prior() int { return l.prior }

// Hits returns the Lookup hits since open: tasks whose recomputation
// this ledger saved.
func (l *Ledger) Hits() int64 { return l.hits.Load() }

// Commits returns the Commit count since open: tasks executed and
// checkpointed in this session.
func (l *Ledger) Commits() int64 { return l.commits.Load() }

// Close releases the file handle, keeping the ledger file on disk for
// a later resume. The ledger must not be used afterwards.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Discard closes the ledger and removes its file: the run completed,
// so its partial results are dead weight (the finished result lives
// in the main store).
func (l *Ledger) Discard() error {
	err := l.Close()
	if l.path != "" {
		if rerr := os.Remove(l.path); rerr != nil && !os.IsNotExist(rerr) && err == nil {
			err = rerr
		}
	}
	return err
}
