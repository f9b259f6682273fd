package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// listDir returns the names in dir (it must be readable).
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

func TestAtomicWriteFileSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, `{"ok":true}`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"ok":true}` {
		t.Fatalf("content %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Fatalf("temp residue left behind: %v", names)
	}
}

// Crash simulation: a writer that fails mid-stream must leave the
// destination exactly as it was — previous contents intact, no
// truncated JSON, no temp litter — and surface the write error.
func TestAtomicWriteFileMidWriteFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := WriteFileAtomic(path, []byte(`{"generation":1}`)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full halfway")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		if _, werr := io.WriteString(w, `{"generation":2,"truncat`); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != `{"generation":1}` {
		t.Fatalf("destination corrupted by failed write: %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 || names[0] != "manifest.json" {
		t.Fatalf("temp residue after failed write: %v", names)
	}
}

// A failed write against a not-yet-existing destination must leave the
// directory empty.
func TestAtomicWriteFileFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.json")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		return errors.New("nope")
	})
	if err == nil {
		t.Fatal("writer error swallowed")
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("destination exists after failed first write: %v", serr)
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Fatalf("temp residue: %v", names)
	}
}

func TestAtomicWriteFileBadDirectory(t *testing.T) {
	err := AtomicWriteFile(filepath.Join(t.TempDir(), "missing", "out.json"),
		func(w io.Writer) error { return nil })
	if err == nil {
		t.Fatal("write into a missing directory did not error")
	}
}

func TestParseJobs(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"1", 1, true}, {"8", 8, true}, {"96", 96, true}, {"auto", 0, true},
		{"0", 0, false}, {"-3", 0, false}, {"-8", 0, false}, {"", 0, false},
		{"eight", 0, false}, {"4.5", 0, false}, {"1.5", 0, false},
		{" 4", 0, false}, {"4 ", 0, false}, {"0x4", 0, false},
		{"AUTO", 0, false}, // case-sensitive, like every other flag value
	}
	for _, c := range cases {
		got, err := ParseJobs(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseJobs(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if err == nil && c.in != "auto" && got != c.want {
			t.Errorf("ParseJobs(%q) = %d, want %d", c.in, got, c.want)
		}
		if c.in == "auto" && err == nil && got <= 0 {
			t.Errorf("ParseJobs(auto) = %d, want > 0", got)
		}
	}
}

func TestNumericFlagValidators(t *testing.T) {
	if err := PositiveInt("n", 3); err != nil {
		t.Error(err)
	}
	for _, v := range []int{0, -1} {
		if err := PositiveInt("n", v); err == nil || !strings.Contains(err.Error(), "-n") {
			t.Errorf("PositiveInt(%d) = %v, want error naming the flag", v, err)
		}
	}
	if err := NonNegativeInt("queue", 0); err != nil {
		t.Error(err)
	}
	if err := NonNegativeInt("queue", -1); err == nil {
		t.Error("NonNegativeInt(-1) accepted")
	}
	if err := PositiveFloat("hours", 24); err != nil {
		t.Error(err)
	}
	for _, v := range []float64{0, -2} {
		if err := PositiveFloat("hours", v); err == nil {
			t.Errorf("PositiveFloat(%v) accepted", v)
		}
	}
}
