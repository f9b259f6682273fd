package main

// The coalescing payoff, measured: a cache-cold zipf request mix over
// real quick experiments, served unbatched (every leader its own
// harness execution) versus through a 10ms window (leaders merged
// into family sweeps). Each request is an async job followed to its
// SSE done event, the path every client takes. The req/s custom
// metric is the headline; the acceptance bar for the serving tier is
// batched >= 2x unbatched on this mix.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// benchServeZipf runs b.N rounds of the fixed mix: 32 concurrent
// requests drawn Zipf(1.3) over 16 content keys (2 quick
// experiment ids x 8 seed salts) against a fresh — cache-cold —
// server per round. Seed salts give distinct content keys over the
// same simulations, the replica-cache shape the sweep collapses: the
// unbatched server owes one execution per cold key, the batched one
// per distinct id per sweep.
func benchServeZipf(b *testing.B, window time.Duration) {
	ids := []string{"table1", "fig6"}
	const seedsPerID = 8
	const requests = 32

	// The mix is fixed across rounds and variants: same draw, same
	// spread, so the only variable is the window.
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(ids)*seedsPerID-1))
	mix := make([]runParams, requests)
	for i := range mix {
		k := int(zipf.Uint64())
		mix[i] = runParams{ID: ids[k%len(ids)], Seed: uint64(k/len(ids) + 1), Quick: true}
	}

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := newServer(serverConfig{
			jobs: 2, concurrency: 2, queue: 64, timeout: 2 * time.Minute,
			cacheBytes: 1 << 20, batchWindow: window, batchMax: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.handler())
		b.StartTimer()

		var wg sync.WaitGroup
		for _, p := range mix {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := awaitJob(ts.URL, "/run/"+p.ID+"?quick=1&seed="+strconv.FormatUint(p.Seed, 10)); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()

		b.StopTimer()
		ts.Close()
		s.store.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "req/s")
}

// awaitJob submits base+path as a job and reads its event stream up
// to the done event, which must report the job done.
func awaitJob(base, path string) error {
	resp, err := http.Post(base+path, "application/json", nil)
	if err != nil {
		return err
	}
	var st jobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fmt.Errorf("POST %s: status %d (%v)", path, resp.StatusCode, err)
	}
	resp, err = http.Get(base + st.EventsURL + "?interval=1m")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		typ, ev, err := readSSE(br)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if typ == "done" {
			if ev.Status == nil || ev.Status.State != string(jobDone) {
				return fmt.Errorf("%s: job ended %+v", path, ev.Status)
			}
			return nil
		}
	}
}

func BenchmarkServeZipfCold(b *testing.B) {
	b.Run("unbatched", func(b *testing.B) { benchServeZipf(b, 0) })
	b.Run("batched10ms", func(b *testing.B) { benchServeZipf(b, 10*time.Millisecond) })
}
