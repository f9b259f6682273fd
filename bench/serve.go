package main

// The two serving workloads: the bench drives a real mhpcd binary over
// HTTP, the way the result service's users reach it. Each request is
// POST /run/{id} (an async job) followed by GET /job/{id}/events until
// the done event; its table payload must equal the bytes the bench
// rendered in-process for that id. The run alternates an open loop at a
// fixed rate, timed from each request's due time, with a closed loop of
// one client per CPU, which gives the capacity: two thirds of each cycle
// open, one third closed. Spreading both loops over the whole run, not
// over one stretch of it each, keeps the host's slow swings in speed
// from landing on one metric only.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mobilehpc/internal/harness"
	"mobilehpc/internal/obs"
)

const (
	// Open-loop rates, fixed at about a fifth of the closed-loop capacity
	// each workload measured on a 2-CPU host. The host's capacity drops
	// by up to 40% for minutes at a time; at a fifth of it, queueing does
	// not yet amplify those swings into the latencies (README.md, Noise).
	coldRate = 25.0
	hotRate  = 500.0
	// hotKeys distinct keys serve-hot draws from, Zipf(hotSkew).
	hotKeys = 16
	hotSkew = 1.3
	// warmSalt is the first seed salt of serve-cold's warm-up requests,
	// far above any salt a run's plan draws.
	warmSalt = 1 << 40
	// setups is how many times a run starts mhpcd (and, for serve-hot,
	// fills its store); setup_s is their median and the last one serves
	// the load.
	setups = 15
	// cycles is how many open-then-closed loop pairs a run measures.
	cycles = 6
)

// runServe runs serve-cold or serve-hot.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	hot := cfg.workload == "serve-hot"
	// The load generator's own GC pauses would read as server latency;
	// its heap is a few MB, so trade memory for fewer collections.
	debug.SetGCPercent(400)
	bin := filepath.Join(cfg.buildDir, "mhpcd")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mhpcd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building mhpcd: %w", err)
	}
	ids, want, err := renderQuick(ctx, cfg.jobs)
	if err != nil {
		return nil, err
	}
	p := newPlan(cfg.seed, hot, ids)
	c := &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: cfg.jobs, MaxIdleConnsPerHost: cfg.jobs,
		}},
		want: want,
	}
	// serve-hot's daemons keep their store on disk, in a fresh directory
	// each; serve-cold's keep it in memory (README.md, Noise: with a disk
	// store, fsync latency swung serve-cold's metrics by up to 25% from
	// run to run). The stores stay behind in .bench_build/tmp, a few MB
	// per run: deleting many fsynced files slowed later fsyncs on the
	// same disk for minutes.
	var tmp string
	if hot {
		if err := os.MkdirAll(filepath.Join(cfg.buildDir, "tmp"), 0o755); err != nil {
			return nil, err
		}
		if tmp, err = os.MkdirTemp(filepath.Join(cfg.buildDir, "tmp"), "serve-"); err != nil {
			return nil, err
		}
	}

	out := &outcome{}
	var d *daemon
	for k := 0; k < setups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		storeDir := ""
		if hot {
			storeDir = filepath.Join(tmp, fmt.Sprintf("store-%d", k))
		}
		t0 := time.Now()
		d, err = startDaemon(ctx, bin, storeDir, c.hc)
		if err != nil {
			return nil, err
		}
		c.base = d.base
		if hot {
			if err := runEach(ctx, c, p.keys, cfg.jobs); err != nil {
				d.stop()
				return nil, fmt.Errorf("prefill: %w", err)
			}
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}

	// Warm up the daemon that serves the load, untimed: serve-hot reads
	// each key once more, serve-cold runs each experiment once.
	if err = runEach(ctx, c, p.keys, cfg.jobs); err != nil {
		err = fmt.Errorf("warm-up: %w", err)
	} else {
		err = measure(ctx, cfg, c, p, d.cmd.Process.Pid, out)
	}
	if err == nil {
		out.peakRSSMB, err = vmHWM(strconv.Itoa(d.cmd.Process.Pid))
	}
	if err = errors.Join(err, d.stop()); err != nil {
		return nil, err
	}
	return out, nil
}

// measure runs the cycles of open and closed loop against the mhpcd
// with the given pid and records the results in out.
func measure(ctx context.Context, cfg config, c *client, p *plan, pid int, out *outcome) error {
	var col *obs.Collector
	if cfg.trace {
		col = obs.New()
	}
	m0, err := scrape(ctx, c)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	rate := coldRate
	if p.hot != nil {
		rate = hotRate
	}
	cycle := time.Duration(cfg.seconds * float64(time.Second) / cycles)
	var opens [][]record
	var open, closed []record
	var closedDur time.Duration
	for k := 0; k < cycles; k++ {
		o := openLoop(ctx, c, p, col, rate, len(open)+len(closed), cycle*2/3, cfg.jobs)
		opens = append(opens, o)
		open = append(open, o...)
		cl, d := closedLoop(ctx, c, p, len(open)+len(closed), cycle-cycle*2/3, cfg.jobs)
		closed = append(closed, cl...)
		closedDur += d
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	m1, err := scrape(ctx, c)
	if err != nil {
		return err
	}
	summarize(out, opens, closed, closedDur)
	if !cfg.trace {
		return nil
	}
	out.layer = serveLayers(open, closed, m0, m1, cpu1-cpu0)
	return writeFile(filepath.Join(cfg.traceDir, "spans.json"), col.WriteChromeTrace)
}

// renderQuick renders every registry experiment in quick mode, the
// bytes mhpcd must stream back for each id. It returns the ids in
// registry order and the bytes by id.
func renderQuick(ctx context.Context, jobs int) ([]string, map[string]string, error) {
	var ids []string
	for _, e := range harness.Experiments() {
		ids = append(ids, e.ID)
	}
	tabs, err := harness.TablesContext(ctx, ids, harness.Options{Quick: true, Jobs: jobs})
	if err != nil {
		return nil, nil, err
	}
	want := make(map[string]string, len(tabs))
	for i, t := range tabs {
		var b strings.Builder
		if err := t.Render(&b); err != nil {
			return nil, nil, err
		}
		want[ids[i]] = b.String()
	}
	return ids, want, nil
}

// plan is the seeded request sequence: request i targets at(i). It is
// a pure function of (seed, i), so concurrent senders need no shared
// generator and the sequence does not depend on scheduling.
type plan struct {
	seed uint64
	ids  []string // quick experiment ids, registry order
	// keys are requested once each, in this order, before the load:
	// serve-hot's pre-computed keys, or serve-cold's warm-up keys.
	keys []hotKey
	hot  []hotKey  // serve-hot: the pre-computed keys, hottest first
	cdf  []float64 // serve-hot: Zipf CDF over hot
}

type hotKey struct {
	id   string
	salt uint64
}

// newPlan draws the request sequence of a run. serve-hot's keys are the
// first hotKeys registry ids, each with its own salt, ranked by a
// seeded shuffle: the seed picks which key is hottest, but the
// experiments the set-up computes, and the order it computes them in,
// and so its cost, are the same for every seed. serve-cold warms up on
// every id once, under salts the plan never draws.
func newPlan(seed int64, hot bool, ids []string) *plan {
	p := &plan{seed: splitmix(uint64(seed)), ids: ids}
	if !hot {
		for j, id := range ids {
			p.keys = append(p.keys, hotKey{id: id, salt: warmSalt + uint64(j)})
		}
		return p
	}
	for j := 0; j < hotKeys; j++ {
		p.keys = append(p.keys, hotKey{id: ids[j], salt: uint64(j)})
	}
	var sum float64
	for k, j := range shuffle(hotKeys, p.seed) {
		p.hot = append(p.hot, p.keys[j])
		sum += math.Pow(float64(k+1), -hotSkew)
		p.cdf = append(p.cdf, sum)
	}
	for k := range p.cdf {
		p.cdf[k] /= sum
	}
	return p
}

// at returns the experiment id and seed salt of request i. serve-cold
// gives every request its own salt, so every content key is new, and
// draws ids in rounds: each run of len(ids) requests is a seeded
// shuffle of all ids. Each request's id is uniform, and the mix is
// balanced, so the latency quantiles do not move with how often a
// seed happens to draw the slow experiments. serve-hot draws one of
// the pre-computed keys.
func (p *plan) at(i int) (string, uint64) {
	if p.hot == nil {
		n := len(p.ids)
		return p.ids[shuffle(n, p.seed^uint64(i/n)<<20)[i%n]], uint64(hotKeys + i)
	}
	x := float64(splitmix(p.seed+uint64(i))>>11) / (1 << 53)
	for k, c := range p.cdf {
		if x < c {
			return p.hot[k].id, p.hot[k].salt
		}
	}
	return p.hot[len(p.hot)-1].id, p.hot[len(p.hot)-1].salt
}

// shuffle returns a permutation of [0, n) drawn from seed
// (Fisher-Yates).
func shuffle(n int, seed uint64) []int {
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	for k := n - 1; k > 0; k-- {
		seed = splitmix(seed)
		j := int(seed % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm
}

// splitmix is the SplitMix64 mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// daemon is one running mhpcd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client  // the client the bench talks to it through
	done chan struct{} // closed once the process has exited
}

// startDaemon execs mhpcd on a free port with storeDir as its store
// directory ("" keeps the store in memory) and waits until /healthz
// answers 200.
func startDaemon(ctx context.Context, bin, storeDir string, hc *http.Client) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr, hc: hc, done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-store-dir", storeDir)
	d.cmd.Stderr = os.Stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mhpcd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("mhpcd exited before becoming healthy")
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("mhpcd never became healthy on %s", addr)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM (mhpcd drains and exits 0), kills the process if
// it has not exited after 15 s, and waits for it. mhpcd starts serving
// before it installs its signal handler, so a daemon stopped right
// after /healthz first answers may die of the SIGTERM instead; that
// counts as stopped too. The client's idle connections are closed
// first: a drain waits 5 s for a connection that never sent a request,
// and the client may hold one it dialed but did not need.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	st := d.cmd.ProcessState
	if ws, ok := st.Sys().(syscall.WaitStatus); !st.Success() && !(ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
		return fmt.Errorf("mhpcd: %v", st)
	}
	return nil
}

// vmHWM reads a process's peak resident set in MB from
// /proc/<pid>/status. (The rusage of a child is no substitute: its
// maxrss includes the parent's resident set at the fork.)
func vmHWM(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// procCPU reads a process's user + system CPU time from /proc. The
// kernel counts in USER_HZ ticks, 100 per second on Linux.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// client issues requests to one mhpcd and checks what comes back.
type client struct {
	base string
	hc   *http.Client
	want map[string]string // expected table per experiment id
}

// record is one request as the load generator saw it.
type record struct {
	due, sent, accepted, done time.Time
	traced                    bool
	err                       error
}

// do runs one job: POST, then the event stream until done. With a
// collector it records a request span and its post and stream spans.
func (c *client) do(ctx context.Context, i int, id string, salt uint64, col *obs.Collector) record {
	r := record{sent: time.Now(), traced: col != nil}
	reqAttr := obs.Int("req", int64(i))
	span := col.StartSpan("request", "bench", reqAttr, obs.Str("experiment", id))
	defer span.End()
	fail := func(format string, args ...any) record {
		r.err = fmt.Errorf("request %d (%s): %s", i, id, fmt.Sprintf(format, args...))
		return r
	}

	post := col.StartSpan("post", "bench", reqAttr)
	url := fmt.Sprintf("%s/run/%s?quick=1&seed=%d", c.base, id, salt)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return fail("%v", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fail("%v", err)
	}
	var st struct {
		EventsURL string `json:"events_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	post.End()
	if resp.StatusCode != http.StatusAccepted || err != nil || st.EventsURL == "" {
		return fail("POST: %s (%v)", resp.Status, err)
	}
	r.accepted = time.Now()

	stream := col.StartSpan("stream", "bench", reqAttr)
	defer stream.End()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+st.EventsURL+"?interval=1m", nil)
	if err != nil {
		return fail("%v", err)
	}
	resp, err = c.hc.Do(req)
	if err != nil {
		return fail("%v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail("events: %s", resp.Status)
	}
	var table *string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 8<<20) // grows from 4 KiB: the client's garbage is GC work that would land in the latencies
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Type   string `json:"type"`
			Table  string `json:"table"`
			Status *struct {
				State string `json:"state"`
				Error string `json:"error"`
			} `json:"status"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fail("event: %v", err)
		}
		switch ev.Type {
		case "table":
			table = &ev.Table
		case "done":
			r.done = time.Now()
			switch {
			case ev.Status == nil || ev.Status.State != "done":
				return fail("job ended %+v", ev.Status)
			case table == nil:
				return fail("no table event")
			case *table != c.want[id]:
				return fail("table differs from the in-process render")
			}
			return r
		}
	}
	return fail("stream ended without a done event (%v)", sc.Err())
}

// runEach requests every key once, untimed, from `clients` clients.
func runEach(ctx context.Context, c *client, keys []hotKey, clients int) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(keys); k = int(next.Add(1) - 1) {
				if r := c.do(ctx, -1-k, keys[k].id, keys[k].salt, nil); r.err != nil {
					errs[w] = r.err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// openLoop sends rate·dur requests, numbered from first on, the k-th
// due at start + k/rate, from `senders` goroutines: a sender takes the
// next request, sleeps until it is due, and runs it to completion. When
// both are busy the next request goes out late, and its latency, timed
// from the due time, shows the wait. It returns once every request has
// completed. When col is set, half the requests are traced, picked by a
// hash of the request number: alternate requests would mostly fall to
// one sender.
func openLoop(ctx context.Context, c *client, p *plan, col *obs.Collector, rate float64, first int, dur time.Duration, senders int) []record {
	n := int(rate * dur.Seconds())
	recs := make([]record, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				if ctx.Err() != nil {
					recs[k] = record{due: due, err: ctx.Err()}
					continue
				}
				i := first + k
				var sc *obs.Collector
				if splitmix(uint64(i))&1 == 0 {
					sc = col
				}
				id, salt := p.at(i)
				recs[k] = c.do(ctx, i, id, salt, sc)
				recs[k].due = due
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs `clients` clients back to back for dur, numbering
// their requests from first on, and returns the records and the time
// the loop actually took.
func closedLoop(ctx context.Context, c *client, p *plan, first int, dur time.Duration, clients int) ([]record, time.Duration) {
	var mu sync.Mutex
	var recs []record
	next := atomic.Int64{}
	next.Store(int64(first))
	start := time.Now()
	stop := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				id, salt := p.at(i)
				r := c.do(ctx, i, id, salt, nil)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// summarize fills the end-to-end part of out from the load records.
func summarize(out *outcome, opens [][]record, closed []record, closedDur time.Duration) {
	failed := func(r record) bool {
		out.attempted++
		if r.err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "bench:", r.err)
		}
		return r.err != nil
	}
	for _, recs := range opens {
		var cyc sample
		for _, r := range recs {
			if !failed(r) {
				cyc = append(cyc, ms(r.done.Sub(r.due)))
			}
		}
		out.ops = append(out.ops, cyc...)
		out.cycles = append(out.cycles, cyc)
	}
	completed := 0
	for _, r := range closed {
		if !failed(r) {
			completed++
		}
	}
	out.opsPerS = float64(completed) / closedDur.Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// serveLayers derives the per-layer metrics of a serving run from the
// client-side timings, the /metrics deltas and mhpcd's CPU time. Counts
// are per request sent.
func serveLayers(open, closed []record, m0, m1 map[string]float64, cpu time.Duration) map[string]float64 {
	all := append(append([]record(nil), open...), closed...)
	per := float64(len(all))
	delta := func(name string) float64 { return m1[name] - m0[name] }
	var accept, job, late, traced, plain sample
	for _, r := range all {
		if r.err == nil {
			accept = append(accept, ms(r.accepted.Sub(r.sent)))
			job = append(job, ms(r.done.Sub(r.accepted)))
		}
	}
	for _, r := range open {
		late = append(late, ms(r.sent.Sub(r.due)))
		switch {
		case r.err != nil:
		case r.traced:
			traced = append(traced, ms(r.done.Sub(r.due)))
		default:
			plain = append(plain, ms(r.done.Sub(r.due)))
		}
	}
	layer := map[string]float64{
		"sim.events":            delta("mhpc_sim_events_dispatched_total") / per,
		"mpi.msgs":              delta("mhpc_mpi_transfer_bytes_count") / per,
		"mpi.bytes":             delta("mhpc_mpi_transfer_bytes_sum") / per,
		"harness.tasks":         delta("mhpc_pool_tasks_total") / per,
		"faults.injected":       delta("mhpc_faults_injected_total") / per,
		"reliability.mc_trials": delta("mhpc_mc_trials_total") / per,
		"store.puts":            delta("mhpc_store_puts_total") / per,
		"store.bytes":           delta("mhpc_store_bytes") / per,
		"mhpcd.runs":            delta("mhpc_serve_runs_total") / per,
		"mhpcd.cache_hits":      delta("mhpc_serve_cache_hits_total") / per,
		"mhpcd.rejected":        delta("mhpc_serve_rejected_total") / per,
		"mhpcd.cpu_ms_per_req":  ms(cpu) / per,
		"mhpcd.accept_ms_p50":   accept.median(),
		"mhpcd.job_ms_p50":      job.median(),
		"loadgen.sent":          float64(len(open)),
	}
	if hits, misses := delta("mhpc_store_hits_total"), delta("mhpc_store_misses_total"); hits+misses > 0 {
		layer["store.hit_ratio"] = hits / (hits + misses)
	}
	layer["mhpcd.job_ms_p99"], _ = job.tail()
	layer["loadgen.late_ms_p99"], _ = late.tail()
	if len(traced) > 0 && len(plain) > 0 {
		layer["trace.overhead_frac"] = traced.median()/plain.median() - 1
	}
	return layer
}

// scrape reads mhpcd's /metrics into name -> value, skipping comments
// and labelled samples (histogram buckets).
func scrape(ctx context.Context, c *client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, sc.Err()
}
