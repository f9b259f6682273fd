package store

// Atomic file writes. Store entries and journal compactions go
// through here, and so do the telemetry traces and run manifests mhpc
// writes for other tools (cmd/jsoncheck, chrome://tracing, the
// Makefile smoke gates). A half-written file is worse than no file,
// because it parses as truncated JSON and fails downstream with a
// confusing error. Writes therefore go to a temp file in the
// destination directory, are fsynced, and are renamed into place — on
// any failure the destination keeps its previous contents (or stays
// absent).

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicWriteFile streams write(w) into path atomically: the bytes
// land in a temp file in path's directory, are flushed to stable
// storage, and replace path in one rename. On error the temp file is
// removed and path is untouched; the close error is checked and
// returned exactly once.
func AtomicWriteFile(path string, write func(w io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// One cleanup path: until the rename succeeds, any exit removes the
	// temp file; Close is idempotent-guarded by the closed flag so the
	// error path cannot close twice.
	closed := false
	defer func() {
		if !closed {
			f.Close()
		}
		if tmp != "" {
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", tmp, err)
	}
	closed = true
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = "" // renamed into place: nothing to clean up
	return nil
}

// WriteFileAtomic writes data to path with the same
// temp-fsync-rename contract as AtomicWriteFile.
func WriteFileAtomic(path string, data []byte) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
