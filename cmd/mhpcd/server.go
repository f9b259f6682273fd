package main

// The mhpcd service core: a result server over the experiment
// registry. Every run is deterministic (same id + options, same
// bytes), so results are content-addressed — the cache key is a hash
// of the full run request — and concurrent identical requests
// coalesce onto one execution (singleflight). Results live in
// internal/store: a byte-budgeted strict-LRU layer that, with
// -store-dir set, is disk-backed and survives restarts — a key
// computed before a SIGTERM is a cache hit after the process comes
// back (TestStoreSmoke proves zero re-executions). Every leader runs
// as a sweep (runSweep): alone, or with -batch-window set merged with
// the other leaders of its window (see batch.go); either way each
// member key checkpoints into its own ledger and resumes from it
// after a failure, a drain abort or a kill. Every request is an
// asynchronous job (jobs.go). Admission is bounded: -concurrency
// sweeps execute at once, -queue more may wait, and a job past that
// fails at once with errBusy instead of piling up goroutines.
// Cancellation rides the abort plumbing: each sweep gets a context
// bounded by its waiters (DELETE /job/{id}), the per-run timeout, and
// the server's drain deadline, and harness.TablesContext unwinds the
// simulation engines mid-event when any of them fires.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobilehpc/internal/harness"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/store"
)

// errBusy is the admission-control rejection: concurrency slots and
// the waiting queue are both full.
var errBusy = errors.New("mhpcd: at capacity, try again later")

// runParams is the full identity of one run request. Two requests
// with equal runParams produce byte-identical output (experiments are
// internally deterministic), which is what makes the content-addressed
// cache sound. Seed does not alter the simulation — it is a replica
// salt: clients that want a fresh execution rather than a cache hit
// send a new seed.
type runParams struct {
	ID    string `json:"id"`
	Seed  uint64 `json:"seed"`
	Quick bool   `json:"quick"`
	CSV   bool   `json:"csv"`
}

// key returns the content address of the params: a hex-encoded
// truncated SHA-256 over an unambiguous encoding of every field.
func (p runParams) key() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d\x00%t\x00%t", p.ID, p.Seed, p.Quick, p.CSV)))
	return hex.EncodeToString(h[:16])
}

// runResult is the JSON envelope the store keeps per key and GET
// /result/{key} returns.
type runResult struct {
	Key    string `json:"key"`
	ID     string `json:"id"`
	Seed   uint64 `json:"seed"`
	Cached bool   `json:"cached"`
	Output string `json:"output"`
}

// call is one in-flight singleflight execution: followers block on
// done and then read the leader's err; on success the bytes are in
// the store.
type call struct {
	done chan struct{}
	err  error
}

// serverConfig is everything newServer needs; main fills it from
// flags, tests fill it directly.
type serverConfig struct {
	jobs        int           // worker pool size passed to each run
	concurrency int           // runs/sweeps executing at once
	queue       int           // additional runs allowed to wait
	timeout     time.Duration // per-run wall clock bound
	cacheBytes  int64         // result-store byte budget; must be positive
	storeDir    string        // result-store directory; "" = memory-only
	jobHistory  int           // job records kept (FIFO over finished jobs); 0 = default
	batchWindow time.Duration // coalescing window; 0 disables batching
	batchMax    int           // keys merged into one sweep before firing early; positive when batching
	// sweepFn renders every member of a sweep, by key; nil selects
	// runSweepBytes, the real registry. Tests substitute fakes.
	sweepFn func(ctx context.Context, fam famKey, ps []runParams, jobs int) (map[string][]byte, error)
}

// server serves the experiment registry over HTTP. The flight table
// and job plane die with the process; the result store survives it
// when backed by a directory.
type server struct {
	cfg      serverConfig
	col      *obs.Collector
	store    *store.Store
	batcher  *batcher
	sem      chan struct{} // concurrency slots
	waiting  chan struct{} // admission: concurrency + queue tokens
	draining atomic.Bool

	// runs counts submitted jobs that have not reached a terminal
	// state; the drain waits on it. Adds happen under mu and only
	// while not draining, so none can race the drain's Wait.
	runs sync.WaitGroup

	// baseCtx is cancelled when the drain deadline expires: it aborts
	// runs that outlive a graceful shutdown.
	baseCtx   context.Context
	abortRuns context.CancelFunc

	// ckptDir is where per-run checkpoint ledgers live: the partials/
	// namespace under the store dir (invisible to the store's orphan
	// sweep), or "" for memory-only ledgers when the store is
	// memory-only too.
	ckptDir string

	mu       sync.Mutex
	flight   map[string]*call
	jobs     map[string]*job
	jobOrder []string // job ids, oldest first (FIFO eviction of finished jobs)
	jobSeq   int64
	ledgers  map[string]*store.Ledger // checkpoint ledgers of live or failed-in-memory keys
}

// newServer wires a server from cfg, opening (and with a storeDir,
// recovering) the result store; the store refuses a budget that is
// not positive.
func newServer(cfg serverConfig) (*server, error) {
	if cfg.jobHistory <= 0 {
		cfg.jobHistory = 256
	}
	if cfg.sweepFn == nil {
		cfg.sweepFn = runSweepBytes
	}
	s := &server{
		cfg:     cfg,
		col:     obs.NewLive(),
		sem:     make(chan struct{}, cfg.concurrency),
		waiting: make(chan struct{}, cfg.concurrency+cfg.queue),
		flight:  map[string]*call{},
		jobs:    map[string]*job{},
		ledgers: map[string]*store.Ledger{},
	}
	if cfg.storeDir != "" {
		s.ckptDir = filepath.Join(cfg.storeDir, "partials")
	}
	st, err := store.Open(cfg.storeDir, cfg.cacheBytes, s.col)
	if err != nil {
		return nil, err
	}
	s.store = st
	s.baseCtx, s.abortRuns = context.WithCancel(context.Background())
	s.batcher = &batcher{s: s, window: cfg.batchWindow, max: cfg.batchMax, pending: map[famKey]*sweep{}}
	return s, nil
}

// cacheGet looks key up in the result store (touching it to MRU).
func (s *server) cacheGet(key string) (runResult, bool) { return decodeResult(s.store.Get(key)) }

// cachePeek is cacheGet without the hit/miss accounting or the LRU
// touch — for internal reads that should not skew the metrics.
func (s *server) cachePeek(key string) (runResult, bool) { return decodeResult(s.store.Peek(key)) }

// decodeResult unmarshals a stored envelope; a miss or an envelope
// that does not decode is not found.
func decodeResult(raw []byte, ok bool) (runResult, bool) {
	var res runResult
	if !ok || json.Unmarshal(raw, &res) != nil {
		return runResult{}, false
	}
	return res, true
}

// cachePut writes one finished run through to the result store. The
// store is the only way output reaches a client, so a result it
// refuses (larger than the whole budget) or fails to write is an
// error.
func (s *server) cachePut(key string, p runParams, data []byte) error {
	env, err := json.Marshal(runResult{Key: key, ID: p.ID, Seed: p.Seed, Output: string(data)})
	if err != nil {
		return err
	}
	return s.store.Put(key, env)
}

// runSweepBytes is the real sweep executor: one TablesContext over
// the union of the members' experiment ids, each table rendered
// (table or CSV) to bytes and fanned out per key. Keys sharing an id
// (seed is a replica salt) share one execution and one rendering.
// This is the only place mhpcd touches the simulation substrate.
func runSweepBytes(ctx context.Context, fam famKey, ps []runParams, jobs int) (map[string][]byte, error) {
	var ids []string
	seen := map[string]bool{}
	for _, p := range ps {
		if !seen[p.ID] {
			seen[p.ID] = true
			ids = append(ids, p.ID)
		}
	}
	tabs, err := harness.TablesContext(ctx, ids, harness.Options{Quick: fam.quick, Jobs: jobs})
	if err != nil {
		return nil, err
	}
	byID := make(map[string][]byte, len(ids))
	for i, tab := range tabs {
		var buf bytes.Buffer
		if fam.csv {
			err = tab.CSV(&buf)
		} else {
			err = tab.Render(&buf)
		}
		if err != nil {
			return nil, err
		}
		byID[ids[i]] = buf.Bytes()
	}
	out := make(map[string][]byte, len(ps))
	for _, p := range ps {
		out[p.key()] = byID[p.ID]
	}
	return out, nil
}

// handler builds the route table (Go 1.22 method/path patterns) and
// wraps it in the request-latency middleware.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("POST /run/{id}", s.handleRun)
	mux.HandleFunc("GET /result/{key}", s.handleResult)
	mux.HandleFunc("GET /job/{job}", s.handleJob)
	mux.HandleFunc("GET /job/{job}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /job/{job}", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.instrument(mux)
}

// instrument observes every request's wall latency into the
// serve.request_latency_ns histogram (surfaced by /metrics and the
// stream deltas). SSE streams are exempt: their duration is the
// connection lifetime, not a request latency, and folding them in
// would swamp the upper buckets.
func (s *server) instrument(h http.Handler) http.Handler {
	lat := s.col.Histogram("serve.request_latency_ns")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		lat.Observe(time.Since(t0).Nanoseconds())
	})
}

// counter is sugar over the collector (nil-safe by obs contract).
func (s *server) counter(name string) *obs.Counter { return s.col.Counter(name) }

// beginDrain flips the server into shutdown mode: healthz reports 503
// (load balancers stop sending) and new runs are refused while
// already-submitted ones finish. Taking mu orders the flip against
// newJob, so after beginDrain returns no job can join s.runs.
func (s *server) beginDrain() {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
}

// waitRuns blocks until every submitted job has reached a terminal
// state, or ctx ends first.
func (s *server) waitRuns(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.runs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	s.counter("serve.requests").Add(1)
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Paper string `json:"paper"`
	}
	var out []entry
	for _, e := range harness.Experiments() {
		out = append(out, entry{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the collector in Prometheus text exposition
// format (counters as _total, gauges as level + _max, histograms as
// cumulative _bucket/_sum/_count families).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.col.WritePrometheus(w)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.counter("serve.requests").Add(1)
	key := r.PathValue("key")
	res, ok := s.cacheGet(key)
	if !ok {
		http.Error(w, "unknown result key (evicted or never computed)", http.StatusNotFound)
		return
	}
	s.counter("serve.cache_hits").Add(1)
	res.Cached = true
	writeJSON(w, http.StatusOK, res)
}

// handleRun serves POST /run/{id}: the run is registered as a job and
// a 202 with the job envelope (status and events URLs) returns
// immediately. The job resolves through the store, singleflight and
// admission control in executeJob.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.counter("serve.requests").Add(1)
	id := r.PathValue("id")
	if _, err := harness.ByID(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	p, err := parseRunParams(id, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j := s.newJob(p, p.key())
	if j == nil {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.counter("serve.jobs").Add(1)
	go s.executeJob(j)
	writeJSON(w, http.StatusAccepted, j.status())
}

// joinLocked registers interest in key's execution. The first caller
// becomes the leader (runs the experiment); everyone else is a
// follower waiting on the same call. s.mu must be held.
func (s *server) joinLocked(key string) (c *call, leader bool) {
	if c, ok := s.flight[key]; ok {
		return c, false
	}
	c = &call{done: make(chan struct{})}
	s.flight[key] = c
	return c, true
}

// admitted pushes one sweep through admission control and runs fn.
// The sweep's context is bounded three ways: the caller's context
// (job cancelled, or every batch waiter gone), the per-run timeout,
// and the server's baseCtx (drain deadline expired).
func (s *server) admitted(ctx context.Context, fn func(ctx context.Context) error) error {
	select {
	case s.waiting <- struct{}{}:
	default:
		s.counter("serve.rejected").Add(1)
		return errBusy
	}
	defer func() { <-s.waiting }()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.baseCtx.Done():
		return s.baseCtx.Err()
	}
	defer func() { <-s.sem }()

	runCtx, cancel := context.WithTimeout(ctx, s.cfg.timeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	g := s.col.Gauge("serve.inflight")
	g.Add(1)
	defer g.Add(-1)
	s.counter("serve.runs").Add(1)
	err := fn(runCtx)
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		s.counter("serve.timeouts").Add(1)
	}
	return err
}

// swept is one member's share of a successful sweep: its bytes and the
// fraction of its tasks restored from checkpoint (0 for a cold run).
type swept struct {
	data        []byte
	resumedFrom float64
}

// runSweep is the one executor behind every request: an unbatched
// leader is a sweep of one, a batch window a sweep of its members.
// Under admission control it opens (or recovers) one checkpoint ledger
// per member key, binds them behind a ledgerRoute, runs sweepFn and
// settles every ledger, so a member that failed, was aborted or was
// killed resumes on its next attempt, alone or in any other window.
func (s *server) runSweep(ctx context.Context, fam famKey, ps []runParams) (map[string]swept, error) {
	out := make(map[string]swept, len(ps))
	err := s.admitted(ctx, func(runCtx context.Context) error {
		route := ledgerRoute{}
		leds := make([]*store.Ledger, len(ps))
		for i, p := range ps {
			leds[i] = s.ledgerFor(p.key())
			if leds[i].Len() > 0 {
				s.counter("serve.resumes").Add(1)
			}
			if route[p.ID] == nil {
				route[p.ID] = &idLedgers{}
			}
			route[p.ID].leds = append(route[p.ID].leds, leds[i])
		}
		defer harness.BindLedger(route)()
		data, err := s.cfg.sweepFn(runCtx, fam, ps, s.cfg.jobs)
		for i, p := range ps {
			s.settleLedger(p.key(), leds[i], err == nil)
			if err == nil {
				out[p.key()] = swept{data: data[p.key()], resumedFrom: route[p.ID].resumedFrom()}
			}
		}
		return err
	})
	return out, err
}

// ledgerRoute is the harness.TaskLedger a sweep binds: member ledgers
// by experiment id. Each label reaches only the members whose
// experiment owns it (harness.LabelExperiment), whatever else shared
// the window. Members sharing an id (seed is a replica salt) share its
// tasks: a lookup takes the first hit, a commit goes to each.
type ledgerRoute map[string]*idLedgers

// idLedgers is the ledgers of one experiment id, with the sweep's
// restored (hits) and executed (commits) task counts for it.
type idLedgers struct {
	leds          []*store.Ledger
	hits, commits atomic.Int64
}

func (r ledgerRoute) Lookup(label string) ([]byte, bool) {
	g := r[harness.LabelExperiment(label)]
	if g == nil {
		return nil, false
	}
	for _, led := range g.leds {
		if data, ok := led.Lookup(label); ok {
			g.hits.Add(1)
			return data, true
		}
	}
	return nil, false
}

func (r ledgerRoute) Commit(label string, data []byte) error {
	g := r[harness.LabelExperiment(label)]
	if g == nil {
		return fmt.Errorf("mhpcd: no sweep member owns checkpoint label %q", label)
	}
	g.commits.Add(1)
	var errs []error
	for _, led := range g.leds {
		errs = append(errs, led.Commit(label, data))
	}
	return errors.Join(errs...)
}

// resumedFrom is the fraction of the id's tasks this sweep restored
// rather than executed.
func (g *idLedgers) resumedFrom() float64 {
	h, c := g.hits.Load(), g.commits.Load()
	if h == 0 {
		return 0
	}
	return float64(h) / float64(h+c)
}

// ledgerFor returns the checkpoint ledger for key, opening or
// recovering it on first use; a non-empty one means this attempt
// resumes. A ledger file that cannot open degrades to a memory-only
// ledger: checkpointing is an optimisation, never a requirement.
func (s *server) ledgerFor(key string) *store.Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	led, ok := s.ledgers[key]
	if !ok {
		var err error
		if led, err = store.OpenLedger(s.ckptDir, key); err != nil {
			led, _ = store.OpenLedger("", key)
		}
		s.ledgers[key] = led
	}
	return led
}

// settleLedger ends one member's attempt. Success, or a failure with
// nothing committed, discards the ledger. Otherwise a disk-backed
// ledger is closed and unmapped — OpenLedger recovers its file next
// time, as after a restart, so a failed key pins no descriptor — and
// a memory-only one stays mapped: the map holds its only copy.
func (s *server) settleLedger(key string, led *store.Ledger, ok bool) {
	discard := ok || led.Len() == 0
	if !discard && s.ckptDir == "" {
		return
	}
	s.mu.Lock()
	if s.ledgers[key] == led {
		delete(s.ledgers, key)
	}
	s.mu.Unlock()
	if discard {
		led.Discard()
	} else {
		led.Close()
	}
}

// finish writes a success through to the result store, publishes the
// outcome to followers, retires the flight entry, and returns the
// outcome: a result the store cannot keep fails the run. Store-put and
// flight-retire happen under one critical section so a concurrent
// request always sees the result in at least one of them.
func (s *server) finish(key string, p runParams, c *call, data []byte, err error) error {
	s.mu.Lock()
	if err == nil {
		err = s.cachePut(key, p, data)
	}
	delete(s.flight, key)
	s.mu.Unlock()
	c.err = err
	close(c.done)
	return err
}

// parseRunParams decodes the run options: an optional JSON body
// ({"quick":true,"csv":false,"seed":7}) with query parameters
// (?quick=1&csv=0&seed=7) overriding it. Garbage values are a 400,
// never a silent default — the same strictness contract as the CLI
// flags.
func parseRunParams(id string, r *http.Request) (runParams, error) {
	p := runParams{ID: id}
	if r.Body != nil && r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			return p, fmt.Errorf("invalid JSON body: %v", err)
		}
		p.ID = id // the path, not the body, names the experiment
	}
	q := r.URL.Query()
	if v := q.Get("quick"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return p, fmt.Errorf("invalid quick=%q: want a boolean", v)
		}
		p.Quick = b
	}
	if v := q.Get("csv"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return p, fmt.Errorf("invalid csv=%q: want a boolean", v)
		}
		p.CSV = b
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("invalid seed=%q: want an unsigned integer", v)
		}
		p.Seed = n
	}
	return p, nil
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
