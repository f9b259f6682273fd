package main

// The mhpcd job plane: asynchronous runs with streaming telemetry.
// POST /run/{id} registers a job and returns its id immediately; the
// run executes through the content-addressed store, the one coalescer
// (batch.go) and admission control. GET /job/{id} reports lifecycle
// state, GET /job/{id}/events streams progress as server-sent events
// (telemetry deltas from the live collector plus the final rendered
// table), and DELETE /job/{id} cancels that job mid-run: its waiter
// leaves the sweep, and when it was the last one the sweep unwinds
// through the context -> AbortFlag plumbing — the engines stop at
// their next event, so cancellation is bounded by event granularity,
// not experiment granularity.
//
// Completed jobs resolve to the content-addressed result store: the
// job's result_key is served by GET /result/{key}.
//
// SSE event schema ("mhpc-job-event/v1"): every event is
//
//	event: <state|telemetry|table|done>
//	data: {"schema":"mhpc-job-event/v1","type":...,"job":...,"seq":N,...}
//
// with "status" on state/done events, "telemetry" (an obs.StreamDelta:
// counter increments, changed gauges, histogram bucket increments +
// p50/p95/p99, open-span tree) on telemetry events, and "table" (the
// rendered result) on table events. Telemetry deltas are exact: a
// consumer that sums them ends with the collector's final totals at
// any poll interval — asserted by TestSSEStreamDeterminism.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mobilehpc/internal/obs"
)

// jobState is one node of the job lifecycle:
//
//	pending -> running -> done | failed | cancelled
type jobState string

const (
	jobPending   jobState = "pending"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// job is one asynchronous run. Identity fields are immutable after
// newJob; the lifecycle fields are guarded by mu; done closes when the
// job reaches a terminal state.
type job struct {
	id      string
	params  runParams
	key     string
	created time.Time
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu          sync.Mutex
	state       jobState
	err         error
	cached      bool
	coalesced   bool
	resumedFrom float64 // fraction of tasks restored from checkpoint (0 = cold run)
	finished    time.Time
}

// jobStatus is the JSON view of a job served by GET /job/{id} and
// embedded in state/done stream events.
type jobStatus struct {
	Schema         string  `json:"schema"`
	Job            string  `json:"job"`
	Experiment     string  `json:"experiment"`
	Seed           uint64  `json:"seed"`
	State          string  `json:"state"`
	Error          string  `json:"error,omitempty"`
	ResultKey      string  `json:"result_key,omitempty"`
	Cached         bool    `json:"cached,omitempty"`
	Coalesced      bool    `json:"coalesced,omitempty"`
	ResumedFrom    float64 `json:"resumed_from,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	StatusURL      string  `json:"status_url"`
	EventsURL      string  `json:"events_url"`
}

// jobEvent is one SSE payload (schema mhpc-job-event/v1).
type jobEvent struct {
	Schema    string           `json:"schema"`
	Type      string           `json:"type"`
	Job       string           `json:"job"`
	Seq       int64            `json:"seq"`
	Status    *jobStatus       `json:"status,omitempty"`
	Telemetry *obs.StreamDelta `json:"telemetry,omitempty"`
	Table     string           `json:"table,omitempty"`
}

// jobEventSchema names the SSE payload layout; documented in README
// ("Serving") and DESIGN ("Observability").
const jobEventSchema = "mhpc-job-event/v1"

// status snapshots the job's JSON view.
func (j *job) status() *jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &jobStatus{
		Schema:      "mhpc-job/v1",
		Job:         j.id,
		Experiment:  j.params.ID,
		Seed:        j.params.Seed,
		State:       string(j.state),
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		ResumedFrom: j.resumedFrom,
		StatusURL:   "/job/" + j.id,
		EventsURL:   "/job/" + j.id + "/events",
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == jobDone {
		st.ResultKey = j.key
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	st.ElapsedSeconds = end.Sub(j.created).Seconds()
	return st
}

// setRunning moves pending -> running (no-op from any other state).
func (j *job) setRunning() {
	j.mu.Lock()
	if j.state == jobPending {
		j.state = jobRunning
	}
	j.mu.Unlock()
}

// complete records the terminal state and how the job resolved; a
// done job also records the fraction of its tasks restored from a
// checkpoint ledger rather than re-executed (resumed_from in the
// status JSON and the SSE state/done events). The caller closes j.done
// (once) after it returns.
func (j *job) complete(err error, out swept) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state, j.resumedFrom = jobDone, out.resumedFrom
	case errors.Is(err, context.Canceled):
		j.state = jobCancelled
		j.err = err
	default:
		j.state = jobFailed
		j.err = err
	}
	j.cached, j.coalesced = out.cached, out.coalesced
	j.finished = time.Now()
	j.mu.Unlock()
}

// terminal reports whether the job has finished.
func (j *job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// newJob registers a job for p under s.mu, pruning the oldest finished
// jobs past the history bound, and counts it in s.runs until
// executeJob ends it. It returns nil once the server is draining. The
// job's context descends from baseCtx so a server drain aborts it like
// any other run.
func (s *server) newJob(p runParams, key string) *job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		params:  p,
		key:     key,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   jobPending,
	}
	// Job ids embed a key prefix for log readability; degrade to the
	// full key if a future key scheme ever shortens it below 8 chars.
	short := key
	if len(short) > 8 {
		short = short[:8]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		cancel()
		return nil
	}
	s.runs.Add(1)
	s.jobSeq++
	j.id = fmt.Sprintf("j%d-%s", s.jobSeq, short)
	for len(s.jobOrder) >= s.cfg.jobHistory {
		evicted := false
		for i, id := range s.jobOrder {
			if s.jobs[id].terminal() {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every retained job is still live; let the table grow
		}
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	return j
}

// jobByID looks a job up (nil when unknown or pruned).
func (s *server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// executeJob drives one asynchronous run to a terminal state through
// the batcher: a store hit, a join onto the sweep already holding its
// key, or a sweep of its own. A sweep rejected by admission control
// fails with errBusy, one past -timeout with context.DeadlineExceeded;
// only the job's own DELETE (or the drain) cancels it.
func (s *server) executeJob(j *job) {
	defer s.runs.Done()
	defer close(j.done)
	defer j.cancel()
	j.setRunning()
	out, err := s.batcher.submit(j.ctx, j.params)
	if err == nil {
		err = out.err // a result the store cannot keep fails the run
	}
	j.complete(err, out)
}

// handleJob serves GET /job/{job}.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.counter("serve.requests").Add(1)
	j := s.jobByID(r.PathValue("job"))
	if j == nil {
		http.Error(w, "unknown job id (pruned or never created)", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobCancel serves DELETE /job/{job}: it raises the job's
// cancellation (the job leaves its sweep; a sweep left by its last
// waiter goes context -> AbortFlag -> engine teardown) and returns
// immediately with the current status — it does not wait for the
// unwind, so the response is prompt (the smoke wall bounds it at
// 100ms) while the goroutines settle behind it. A DELETE that lands
// on an already-terminal job is a no-op: it reports the terminal
// status without raising anything and without bumping
// serve.jobs_cancelled — only cancels of live jobs count.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.counter("serve.requests").Add(1)
	j := s.jobByID(r.PathValue("job"))
	if j == nil {
		http.Error(w, "unknown job id (pruned or never created)", http.StatusNotFound)
		return
	}
	if j.terminal() {
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	j.cancel()
	s.counter("serve.jobs_cancelled").Add(1)
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobEvents serves GET /job/{job}/events: the SSE progress
// stream. ?interval=D (a Go duration, default 200ms, floor 1ms) sets
// the telemetry poll cadence. The stream ends with a final telemetry
// delta (closing the exact-totals invariant), the rendered table when
// the run succeeded, and a done event carrying the terminal status.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.counter("serve.requests").Add(1)
	j := s.jobByID(r.PathValue("job"))
	if j == nil {
		http.Error(w, "unknown job id (pruned or never created)", http.StatusNotFound)
		return
	}
	interval := 200 * time.Millisecond
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			http.Error(w, fmt.Sprintf("invalid interval=%q: want a positive duration", v), http.StatusBadRequest)
			return
		}
		if d < time.Millisecond {
			d = time.Millisecond
		}
		interval = d
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	var seq int64
	send := func(typ string, ev jobEvent) bool {
		seq++
		ev.Schema, ev.Type, ev.Job, ev.Seq = jobEventSchema, typ, j.id, seq
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	stream := s.col.NewStream()
	s.counter("serve.streams").Add(1)
	if !send("state", jobEvent{Status: j.status()}) {
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			// Close the accounting: one final delta captures everything
			// after the last tick, so summed deltas equal final totals.
			if !send("telemetry", jobEvent{Telemetry: stream.Delta()}) {
				return
			}
			st := j.status()
			if st.State == string(jobDone) {
				res, ok := s.cachePeek(j.key)
				if ok {
					if !send("table", jobEvent{Table: res.Output}) {
						return
					}
				}
			}
			send("done", jobEvent{Status: st})
			return
		case <-ticker.C:
			if !send("telemetry", jobEvent{Telemetry: stream.Delta()}) {
				return
			}
		}
	}
}
