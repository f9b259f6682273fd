// Package store is the durable result tier of the serving fabric: a
// disk-backed, content-addressed key/value store with byte-budget
// strict-LRU eviction and a write-through in-memory layer. mhpcd keys
// it by the run-request hash (id, seed, quick, csv), so results
// survive a server restart — a key that was computed before a SIGTERM
// is a cache hit after the process comes back.
//
// # Layout
//
// A store directory holds one file per entry plus an index journal:
//
//	<dir>/entries/<key>   header line + payload (see entry format)
//	<dir>/index.journal   append-only op log, compacted on Open
//
// Every entry file is written through core.AtomicWriteFile
// (temp + fsync + rename), so a crash mid-put can never leave a
// half-written entry under its final name. The journal is the LRU
// authority: `put` and `get` (touch) lines record recency, `del`
// lines record evictions. Each line carries a CRC of its own fields,
// so a torn tail — the normal shape of a kill mid-append — is
// detected and dropped on recovery instead of corrupting the index.
//
// # Recovery
//
// Open replays the journal (skipping torn or malformed lines), then
// verifies every indexed entry file: the header must parse, the
// payload length and SHA-256 must match both the header and the
// journal's record. Damaged entries are dropped and their files
// removed; entry files with no index line (a crash between the entry
// rename and the journal append) are orphans and are removed too.
// The surviving set is loaded into memory, the byte budget is
// re-enforced (the budget may have shrunk between runs), and the
// journal is rewritten compact — one `put` line per live entry in
// LRU→MRU order — through the same atomic-write path.
//
// Open never fails because of damaged data; it fails only on real
// I/O errors (unreadable directory, journal unwritable).
//
// # Observability
//
// All traffic is exported through an obs.Collector (nil-safe):
// counters store.hits / store.misses / store.puts / store.evictions /
// store.dropped / store.orphans / store.journal_dropped /
// store.recovered, gauges store.bytes / store.entries. mhpcd surfaces
// them on /metrics.
package store

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mobilehpc/internal/core"
	"mobilehpc/internal/obs"
)

// Store is a byte-budgeted LRU map from content keys to opaque value
// bytes, optionally persisted under a directory. All methods are safe
// for concurrent use.
type Store struct {
	dir      string // "" = memory-only
	maxBytes int64

	hits, misses, puts, evictions     *obs.Counter
	dropped, orphans, torn, recovered *obs.Counter
	bytesG, entriesG                  *obs.Gauge

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = MRU, back = LRU
	bytes   int64
	journal *os.File // nil in memory-only mode
}

// entry is one live record: the payload plus its checksum (kept so
// compaction can rewrite authoritative put lines without re-hashing).
type entry struct {
	key  string
	data []byte
	sum  string // hex SHA-256 of data
	elem *list.Element
}

// Open returns a store bounded by maxBytes of payload. dir == ""
// selects the memory-only mode (the write-through layer without the
// disk under it); otherwise the directory is created if absent and
// surviving entries are recovered as described in the package
// comment. maxBytes must be positive: a store that keeps nothing is
// refused, not silently emulated. col may be nil (metrics become
// no-ops).
func Open(dir string, maxBytes int64, col *obs.Collector) (*Store, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("store: byte budget %d: want a positive byte count", maxBytes)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  map[string]*entry{},
		lru:      list.New(),

		hits:      col.Counter("store.hits"),
		misses:    col.Counter("store.misses"),
		puts:      col.Counter("store.puts"),
		evictions: col.Counter("store.evictions"),
		dropped:   col.Counter("store.dropped"),
		orphans:   col.Counter("store.orphans"),
		torn:      col.Counter("store.journal_dropped"),
		recovered: col.Counter("store.recovered"),
		bytesG:    col.Gauge("store.bytes"),
		entriesG:  col.Gauge("store.entries"),
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.entriesDir(), 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) entriesDir() string        { return filepath.Join(s.dir, "entries") }
func (s *Store) entryPath(k string) string { return filepath.Join(s.entriesDir(), k) }
func (s *Store) journalPath() string       { return filepath.Join(s.dir, "index.journal") }

// recover replays the journal, verifies and loads the surviving
// entries, removes orphans, re-enforces the budget, and compacts.
func (s *Store) recover() error {
	idx, torn, err := readJournal(s.journalPath())
	if err != nil {
		return err
	}
	s.torn.Add(int64(torn))

	indexed := make(map[string]bool, len(idx))
	for _, rec := range idx { // LRU -> MRU order
		indexed[rec.key] = true
		data, sum, ok := s.loadEntry(rec)
		if !ok {
			s.dropped.Add(1)
			os.Remove(s.entryPath(rec.key))
			continue
		}
		e := &entry{key: rec.key, data: data, sum: sum}
		e.elem = s.lru.PushFront(e)
		s.entries[rec.key] = e
		s.bytes += int64(len(data))
	}

	// Orphan sweep: an entry file with no index line is the residue of
	// a crash between the entry rename and the journal append.
	names, err := os.ReadDir(s.entriesDir())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		if !indexed[de.Name()] {
			s.orphans.Add(1)
			os.Remove(s.entryPath(de.Name()))
		}
	}

	// The budget may be tighter than the previous run's: evict the
	// strict-LRU tail until the survivors fit.
	for s.bytes > s.maxBytes {
		e := s.lru.Remove(s.lru.Back()).(*entry)
		delete(s.entries, e.key)
		s.bytes -= int64(len(e.data))
		os.Remove(s.entryPath(e.key))
		s.evictions.Add(1)
	}

	s.recovered.Add(int64(len(s.entries)))
	s.bytesG.Add(s.bytes)
	s.entriesG.Add(int64(len(s.entries)))

	// Compact: rewrite the journal as one put line per live entry in
	// LRU -> MRU order, then reopen it for appends.
	if err := core.AtomicWriteFile(s.journalPath(), func(w io.Writer) error {
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if _, err := w.Write(putLine(e.key, int64(len(e.data)), e.sum)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("store: compacting journal: %w", err)
	}
	j, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.journal = j
	return nil
}

// loadEntry reads and verifies one entry file against its journal
// record: header parse, key match, declared and journal-recorded
// sizes, and the payload's actual SHA-256. Any mismatch is damage.
func (s *Store) loadEntry(rec journalRec) (data []byte, sum string, ok bool) {
	raw, err := os.ReadFile(s.entryPath(rec.key))
	if err != nil {
		return nil, "", false
	}
	key, payload, hdrSum, err := parseEntry(raw)
	if err != nil || key != rec.key {
		return nil, "", false
	}
	if rec.size != int64(len(payload)) || rec.sum != hdrSum {
		return nil, "", false
	}
	if sumHexOf(payload) != hdrSum {
		return nil, "", false
	}
	return payload, hdrSum, true
}

// Get returns the value stored under key and touches it to MRU. The
// returned slice is the store's copy — callers must not mutate it.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.lru.MoveToFront(e.elem)
	if s.journal != nil {
		// Recency survives restarts: touches are journaled (no fsync —
		// losing a tail of get lines only costs LRU precision).
		s.journal.Write(touchLine(key))
	}
	return e.data, true
}

// Peek returns the value stored under key without touching it and
// without hit/miss accounting — for internal reads (a job's SSE table
// event, say) that should not skew cache-effectiveness metrics or the
// LRU order client traffic establishes.
func (s *Store) Peek(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// Put stores data under key, evicting strict-LRU entries until the
// byte budget holds. A key that is already present is touched, not
// rewritten (values are content-addressed: same key, same bytes). A
// value larger than the whole budget is an error and evicts nothing —
// storing it would require exceeding the budget, which Put never does.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(len(data)) > s.maxBytes {
		return fmt.Errorf("store: %d-byte value exceeds the %d-byte result-store budget", len(data), s.maxBytes)
	}
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		if s.journal != nil {
			s.journal.Write(touchLine(key))
		}
		return nil
	}

	sumHex := sumHexOf(data)
	if s.journal != nil {
		if err := core.WriteFileAtomic(s.entryPath(key), encodeEntry(key, data, sumHex)); err != nil {
			return fmt.Errorf("store: writing entry: %w", err)
		}
		if _, err := s.journal.Write(putLine(key, int64(len(data)), sumHex)); err != nil {
			return fmt.Errorf("store: journal append: %w", err)
		}
		if err := s.journal.Sync(); err != nil {
			return fmt.Errorf("store: journal sync: %w", err)
		}
	}

	cp := make([]byte, len(data))
	copy(cp, data)
	e := &entry{key: key, data: cp, sum: sumHex}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.bytes += int64(len(cp))
	s.puts.Add(1)
	s.bytesG.Add(int64(len(cp)))
	s.entriesG.Add(1)

	for s.bytes > s.maxBytes {
		s.evictLockedLRU()
	}
	return nil
}

// evictLockedLRU removes the least-recently-used entry. s.mu held.
func (s *Store) evictLockedLRU() {
	e := s.lru.Remove(s.lru.Back()).(*entry)
	delete(s.entries, e.key)
	s.bytes -= int64(len(e.data))
	s.evictions.Add(1)
	s.bytesG.Add(-int64(len(e.data)))
	s.entriesG.Add(-1)
	if s.journal != nil {
		s.journal.Write(delLine(e.key))
		os.Remove(s.entryPath(e.key))
	}
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the total payload bytes held.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Keys returns the live keys in LRU -> MRU order (the eviction
// order) — the observable the property tests pin.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Close releases the journal handle. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}
