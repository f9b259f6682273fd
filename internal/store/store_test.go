package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mobilehpc/internal/obs"
)

// k returns a deterministic valid test key: "k" is not hex, so keys
// are spelled as hex strings derived from i.
func k(i int) string { return fmt.Sprintf("%08x", i) }

func openT(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "disk"
		if dir == "" {
			name = "memory"
		}
		t.Run(name, func(t *testing.T) {
			s := openT(t, dir, 1<<20)
			if _, ok := s.Get(k(1)); ok {
				t.Fatal("hit on an empty store")
			}
			want := []byte("table bytes for key 1")
			if err := s.Put(k(1), want); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(k(1))
			if !ok || string(got) != string(want) {
				t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
			}
			if s.Len() != 1 || s.Bytes() != int64(len(want)) {
				t.Errorf("Len=%d Bytes=%d, want 1, %d", s.Len(), s.Bytes(), len(want))
			}
		})
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s := openT(t, t.TempDir(), 1<<20)
	for _, bad := range []string{"", "UPPER", "has space", "../escape", "dead/beef", strings.Repeat("a", 65)} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
	}
}

// The store survives a close/reopen: entries, bytes, and LRU order
// all come back, and recency recorded by Gets is preserved.
func TestReopenPreservesEntriesAndLRUOrder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	for i := 1; i <= 3; i++ {
		if err := s.Put(k(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k(1): order becomes LRU->MRU = 2, 3, 1.
	if _, ok := s.Get(k(1)); !ok {
		t.Fatal("miss on live key")
	}
	wantOrder := []string{k(2), k(3), k(1)}
	if got := s.Keys(); !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("pre-close order %v, want %v", got, wantOrder)
	}
	wantBytes := s.Bytes()
	s.Close()

	col := obs.New()
	r, err := Open(dir, 1<<20, col)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Keys(); !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("post-reopen order %v, want %v", got, wantOrder)
	}
	if r.Bytes() != wantBytes || r.Len() != 3 {
		t.Errorf("reopened Bytes=%d Len=%d, want %d, 3", r.Bytes(), r.Len(), wantBytes)
	}
	for i := 1; i <= 3; i++ {
		got, ok := r.Get(k(i))
		if !ok || string(got) != fmt.Sprintf("value-%d", i) {
			t.Errorf("key %s: got %q, %v", k(i), got, ok)
		}
	}
	// Reload metrics: the gauges carry the recovered size.
	g := col.Gauges()
	if g["store.entries"] != 3 || g["store.bytes"] != wantBytes {
		t.Errorf("gauges entries=%d bytes=%d, want 3, %d", g["store.entries"], g["store.bytes"], wantBytes)
	}
	if c := col.Counters(); c["store.recovered"] != 3 {
		t.Errorf("store.recovered = %d, want 3", c["store.recovered"])
	}
}

// Eviction is strict-LRU: the least recently *used* (not least
// recently inserted) key goes first.
func TestEvictionIsStrictLRUNotFIFO(t *testing.T) {
	s := openT(t, t.TempDir(), 30)
	v := []byte("0123456789") // 10 bytes each; budget fits 3
	for i := 1; i <= 3; i++ {
		if err := s.Put(k(i), v); err != nil {
			t.Fatal(err)
		}
	}
	s.Get(k(1)) // k(1) is now MRU; FIFO would still evict it first
	if err := s.Put(k(4), v); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k(2)); ok {
		t.Error("k(2) survived; strict LRU should have evicted it")
	}
	for _, want := range []int{1, 3, 4} {
		if _, ok := s.Get(k(want)); !ok {
			t.Errorf("k(%d) evicted; strict LRU should have kept it", want)
		}
	}
}

// A value larger than the whole budget is refused with an error,
// never stored over budget, and evicts nothing.
func TestOversizeValueIsRefused(t *testing.T) {
	s := openT(t, t.TempDir(), 16)
	if err := s.Put(k(1), []byte("small")); err != nil {
		t.Fatal(err)
	}
	err := s.Put(k(2), []byte("this value is far larger than the byte budget"))
	if err == nil || !strings.Contains(err.Error(), "exceeds the 16-byte") {
		t.Errorf("oversize put: err %v, want a budget error", err)
	}
	if _, ok := s.Get(k(2)); ok {
		t.Error("oversize value was stored")
	}
	if _, ok := s.Get(k(1)); !ok {
		t.Error("oversize put evicted an unrelated entry")
	}
}

// A store that could keep nothing is refused at Open, in memory and
// on disk.
func TestNonPositiveBudgetRefused(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		for _, dir := range []string{"", t.TempDir()} {
			if s, err := Open(dir, budget, nil); err == nil {
				s.Close()
				t.Errorf("Open(%q, %d) accepted a budget that keeps nothing", dir, budget)
			}
		}
	}
}

// Property wall: against a reference model (map + recency slice), a
// random op mix must keep (a) bytes <= budget at every step, (b) the
// exact live key set, and (c) the exact strict-LRU eviction order.
func TestPropertyLRUBudgetAgainstReferenceModel(t *testing.T) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			dir := ""
			if mode == "disk" {
				dir = t.TempDir()
			}
			const budget = 100
			s := openT(t, dir, budget)
			rng := rand.New(rand.NewSource(42))

			// Reference model.
			type refEnt struct {
				key  string
				size int
			}
			var ref []refEnt // index 0 = LRU
			refBytes := 0
			find := func(key string) int {
				for i, e := range ref {
					if e.key == key {
						return i
					}
				}
				return -1
			}
			touch := func(i int) {
				e := ref[i]
				ref = append(append(ref[:i:i], ref[i+1:]...), e)
			}

			for step := 0; step < 2000; step++ {
				key := k(rng.Intn(12))
				if rng.Intn(3) == 0 { // Get
					_, ok := s.Get(key)
					if i := find(key); i >= 0 {
						if !ok {
							t.Fatalf("step %d: model has %s, store missed", step, key)
						}
						touch(i)
					} else if ok {
						t.Fatalf("step %d: store served %s the model evicted", step, key)
					}
					continue
				}
				size := 1 + rng.Intn(40)
				val := make([]byte, size)
				for j := range val {
					val[j] = byte('a' + rng.Intn(26))
				}
				if err := s.Put(key, val); err != nil {
					t.Fatal(err)
				}
				if i := find(key); i >= 0 {
					touch(i) // duplicate put = touch, value unchanged
				} else if size <= budget {
					ref = append(ref, refEnt{key, size})
					refBytes += size
					for refBytes > budget {
						refBytes -= ref[0].size
						ref = ref[1:]
					}
				}

				if got := s.Bytes(); got > budget {
					t.Fatalf("step %d: bytes %d exceeded budget %d", step, got, budget)
				}
				wantKeys := make([]string, len(ref))
				for i, e := range ref {
					wantKeys[i] = e.key
				}
				if got := s.Keys(); !reflect.DeepEqual(got, wantKeys) {
					t.Fatalf("step %d: LRU order %v, want %v", step, got, wantKeys)
				}
			}
		})
	}
}

// The journal is compacted on open: after heavy traffic it holds one
// put line per live entry, not the whole history.
func TestJournalCompactsOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	for i := 0; i < 50; i++ {
		s.Put(k(i%5), []byte("some value bytes"))
		s.Get(k(i % 5))
	}
	s.Close()
	before, err := os.ReadFile(filepath.Join(dir, "index.journal"))
	if err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, 1<<20)
	after, err := os.ReadFile(filepath.Join(dir, "index.journal"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := r.Len()
	if got := strings.Count(string(after), "\n"); got != wantLines {
		t.Errorf("compacted journal has %d lines, want %d", got, wantLines)
	}
	if len(after) >= len(before) {
		t.Errorf("compaction did not shrink the journal: %d -> %d bytes", len(before), len(after))
	}
}

// Concurrent Put/Get traffic with -race: the store stays within
// budget and serves only intact values.
func TestConcurrentTraffic(t *testing.T) {
	s := openT(t, t.TempDir(), 4096)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				key := k(rng.Intn(20))
				if rng.Intn(2) == 0 {
					val := []byte(strings.Repeat(key, 4)) // value determined by key
					if err := s.Put(key, val); err != nil {
						t.Error(err)
						return
					}
				} else if got, ok := s.Get(key); ok {
					if string(got) != strings.Repeat(key, 4) {
						t.Errorf("key %s served wrong bytes", key)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.Bytes() > 4096 {
		t.Errorf("budget exceeded: %d", s.Bytes())
	}
}
