package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLedgerRoundTrip: commits survive a close/reopen, Prior reports
// the recovered count, and Discard removes the file.
func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir, "ab12")
	if err != nil {
		t.Fatal(err)
	}
	if l.Prior() != 0 || l.Len() != 0 {
		t.Fatalf("fresh ledger: prior=%d len=%d, want 0/0", l.Prior(), l.Len())
	}
	if err := l.Commit("subrun/fig6/n=4", []byte(`["4","1.0"]`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("experiment/fig6", []byte(`{"ID":"fig6"}`)); err != nil {
		t.Fatal(err)
	}
	if l.Commits() != 2 {
		t.Fatalf("commits = %d, want 2", l.Commits())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(dir, "ab12")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Prior() != 2 || l2.Len() != 2 {
		t.Fatalf("reopened: prior=%d len=%d, want 2/2", l2.Prior(), l2.Len())
	}
	got, ok := l2.Lookup("subrun/fig6/n=4")
	if !ok || !bytes.Equal(got, []byte(`["4","1.0"]`)) {
		t.Fatalf("lookup = %q, %v", got, ok)
	}
	if _, ok := l2.Lookup("subrun/fig6/n=8"); ok {
		t.Fatal("lookup of uncommitted label hit")
	}
	if l2.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", l2.Hits())
	}
	if err := l2.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ab12.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("ledger file survived Discard: %v", err)
	}
}

// TestLedgerTornTail: a kill mid-append leaves a torn last line;
// recovery must keep every complete line and drop the tail.
func TestLedgerTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir, "cafe")
	if err != nil {
		t.Fatal(err)
	}
	l.Commit("a", []byte("payload-a"))
	l.Commit("b", []byte("payload-b"))
	l.Close()

	path := filepath.Join(dir, "cafe.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: append a half-written line (no newline, bad
	// crc) plus a line of garbage.
	torn := append(append([]byte{}, raw...), []byte("garbage line here\nmhpc-ckpt/v1 0123")...)
	if err := os.WriteFile(path, torn, 0o666); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(dir, "cafe")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Prior() != 2 {
		t.Fatalf("prior = %d, want 2 (torn tail dropped, complete lines kept)", l2.Prior())
	}
	if got, ok := l2.Lookup("b"); !ok || string(got) != "payload-b" {
		t.Fatalf("lookup b = %q, %v", got, ok)
	}
}

// TestLedgerLastWins: recommitting a label overwrites, in memory and
// across recovery.
func TestLedgerLastWins(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir, "beef")
	if err != nil {
		t.Fatal(err)
	}
	l.Commit("x", []byte("old"))
	l.Commit("x", []byte("new"))
	if got, _ := l.Lookup("x"); string(got) != "new" {
		t.Fatalf("in-memory lookup = %q, want new", got)
	}
	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1", l.Len())
	}
	l.Close()
	l2, err := OpenLedger(dir, "beef")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, _ := l2.Lookup("x"); string(got) != "new" {
		t.Fatalf("recovered lookup = %q, want new", got)
	}
}

// TestLedgerMemoryOnly: an empty dir selects the in-process mode —
// commits work, nothing touches disk, Discard is a no-op.
func TestLedgerMemoryOnly(t *testing.T) {
	l, err := OpenLedger("", "whatever-key-is-fine-here")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := l.Lookup("a"); !ok || string(got) != "v" {
		t.Fatalf("lookup = %q, %v", got, ok)
	}
	if err := l.Discard(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerRejectsInvalidKey: the run key names a file, so anything
// that is not a content key is refused.
func TestLedgerRejectsInvalidKey(t *testing.T) {
	for _, key := range []string{"", "../escape", "UPPER", strings.Repeat("a", 65)} {
		if _, err := OpenLedger(t.TempDir(), key); err == nil {
			t.Errorf("OpenLedger accepted key %q", key)
		}
	}
}

// TestLedgerEmptyPayload: a zero-length payload round-trips (the "-"
// encoding in the line format).
func TestLedgerEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir, "00ff")
	if err != nil {
		t.Fatal(err)
	}
	l.Commit("empty", nil)
	l.Close()
	l2, err := OpenLedger(dir, "00ff")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, ok := l2.Lookup("empty"); !ok || len(got) != 0 {
		t.Fatalf("lookup = %q, %v, want empty hit", got, ok)
	}
}

// TestLedgerNamespaceInvisibleToStore: a ledger directory under the
// store dir (the partials namespace mhpcd uses) must survive a store
// recovery — the orphan sweep only covers entries/.
func TestLedgerNamespaceInvisibleToStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("aa11", []byte("result"))
	s.Close()

	l, err := OpenLedger(filepath.Join(dir, "partials"), "aa11")
	if err != nil {
		t.Fatal(err)
	}
	l.Commit("subrun/x", []byte("partial"))
	l.Close()

	// Reopen the store: recovery must keep the result AND leave the
	// ledger file alone.
	s2, err := Open(dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Peek("aa11"); !ok {
		t.Fatal("store lost its entry")
	}
	l2, err := OpenLedger(filepath.Join(dir, "partials"), "aa11")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Prior() != 1 {
		t.Fatalf("ledger prior = %d, want 1 (store recovery must not sweep partials/)", l2.Prior())
	}
}

// TestLineBytesPinned: the journal and ledger lines share one codec,
// and their bytes on disk are a compatibility contract — a store or
// ledger written by an older build must still replay. The literals
// below were rendered by the separate per-format encoders the shared
// codec replaced; each must also parse back to what was encoded.
func TestLineBytesPinned(t *testing.T) {
	const key = "0123456789abcdef"
	sum := sumHexOf([]byte("payload"))
	journal := []struct {
		line []byte
		want string
		op   string
	}{
		{putLine(key, 7, sum), "v1 put 0123456789abcdef 7 239f59ed55e737c77147cf55ad0c1b030b6d7ee748a7426952f9b852d5a935e5 62b2aeeb\n", "put"},
		{touchLine(key), "v1 get 0123456789abcdef 0 - 00c2d381\n", "get"},
		{delLine(key), "v1 del 0123456789abcdef 0 - 486816e8\n", "del"},
	}
	for _, c := range journal {
		if string(c.line) != c.want {
			t.Errorf("journal line = %q, want %q", c.line, c.want)
		}
		op, rec, ok := parseJournalLine(strings.TrimSuffix(c.want, "\n"))
		if !ok || op != c.op || rec.key != key {
			t.Errorf("parse %q = %q %+v %v", c.want, op, rec, ok)
		}
	}

	ledger := []struct {
		label string
		data  string
		want  string
	}{
		{"subrun/fig6/n=48", "rows", "mhpc-ckpt/v1 b432974bd33c8f90 4 bc51e9e65d79e1c90ba544ab2eae1044ccdf8c1af7a559ba375cba4276f7d99e cm93cw== 93e6de42\n"},
		{"experiment/table1", "", "mhpc-ckpt/v1 9ab48f510c9894ff 0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 - b34afbcd\n"},
	}
	dir := t.TempDir()
	l, err := OpenLedger(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	var file string
	for _, c := range ledger {
		if got := ckptLine(labelHash(c.label), []byte(c.data)); string(got) != c.want {
			t.Errorf("ledger line = %q, want %q", got, c.want)
		}
		lh, data, ok := parseCkptLine(strings.TrimSuffix(c.want, "\n"))
		if !ok || lh != labelHash(c.label) || string(data) != c.data {
			t.Errorf("parse %q = %q %q %v", c.want, lh, data, ok)
		}
		if err := l.Commit(c.label, []byte(c.data)); err != nil {
			t.Fatal(err)
		}
		file += c.want
	}
	l.Close()
	if raw, err := os.ReadFile(filepath.Join(dir, key+".ckpt")); err != nil || string(raw) != file {
		t.Errorf("ledger file = %q (%v), want %q", raw, err, file)
	}
}
