# Verification gates for the mobilehpc reproduction. `make check` is
# the full wall a PR must clear:
#   vet, build, test   go vet, go build (both modules) and the tier-1
#                      test suite
#   race               the -short suite under the race detector
#   telemetry-smoke    every exporter on, stdout byte-identical, valid JSON
#   faults-smoke       a fault-injected sweep byte-identical across -j,
#                      its injected events in the run manifest
#   bench-smoke        the micro-benches bench/ cannot see still run
#   benchmark-smoke    every bench/ workload, untraced and traced, end to
#                      end through the real binaries
#   serve-smoke        the real mhpcd: cache, admission, SIGTERM drain,
#                      and a coalescing daemon under concurrent jobs,
#                      SIGKILLed mid-sweep and resumed
#   stream-smoke       SSE telemetry, job cancel, Prometheus /metrics
#   store-smoke        kill and restart on one -store-dir, zero re-runs
#   resume-smoke       a SIGKILLed checkpointing sweep resumes
#                      byte-identically across -j
GO ?= go
TMP ?= /tmp/mhpc-smoke

.PHONY: check vet build test race bench bench-smoke benchmark-smoke telemetry-smoke faults-smoke serve-smoke stream-smoke store-smoke resume-smoke

check: vet build test race telemetry-smoke faults-smoke bench-smoke benchmark-smoke serve-smoke stream-smoke store-smoke resume-smoke

# vet and build cover the bench/ module too: it pins its own go.mod,
# so a root go.mod change it cannot follow fails here in seconds.
vet:
	$(GO) vet ./...
	cd bench && GOFLAGS= $(GO) vet .

build:
	$(GO) build ./...
	cd bench && GOFLAGS= $(GO) build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Fast anti-rot gate for the micro-benches the repository benchmark
# (bench/) cannot see: engine dispatch, chunked transfer, the process
# switch, histogram observe and the scrape path. A fixed 100 iterations
# (no timing claims, race off) proves they still compile and run.
# RunGrid (the 64-node 2-D HPL grid, ~0.3 s an iteration) runs once,
# with its time and bytes printed, so the MPI matching path shows a
# regression without the full benchmark.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EngineThroughput|TransferChunked|ProcSwitch|HistogramObserve|ScrapeRange' \
		-benchtime 100x ./internal/sim ./internal/interconnect ./internal/obs
	$(GO) test -run '^$$' -bench 'RunGrid/n=64' -benchmem -benchtime 1x ./internal/apps/hpl

# The repository benchmark's own smoke: bench/ is a separate module, so
# this is the gate that builds and runs it. Every workload runs for one
# second, untraced and traced, through the real binaries, and each
# result line must be correct with every metric present.
benchmark-smoke:
	cd bench && MHPC_BENCH_SMOKE=1 $(GO) test -count=1 .

# End-to-end observability gate: run the full quick registry with every
# telemetry exporter on, validate both JSON artefacts, and re-check
# that stdout stayed byte-identical to the plain serial run.
telemetry-smoke:
	rm -rf $(TMP) && mkdir -p $(TMP)
	$(GO) build -o $(TMP)/mhpc ./cmd/mhpc
	$(TMP)/mhpc all -quick -j 4 -trace-out $(TMP)/trace.json -report $(TMP)/manifest.json > $(TMP)/out-telemetry.txt
	$(TMP)/mhpc all -quick -j 1 > $(TMP)/out-plain.txt
	cmp $(TMP)/out-telemetry.txt $(TMP)/out-plain.txt
	$(GO) run ./cmd/jsoncheck $(TMP)/trace.json $(TMP)/manifest.json

# End-to-end fault-injection gate: a short fault-sweep must be
# byte-identical at -j 4 vs serial with telemetry on, the injected
# fault events (plus the replay's checkpoints and restarts, and the
# engines' batched event counts) must land in the run manifest with
# non-zero counts, and the buffered trace must carry the fault spans.
faults-smoke:
	rm -rf $(TMP)-faults && mkdir -p $(TMP)-faults
	$(GO) build -o $(TMP)-faults/mhpc ./cmd/mhpc
	$(TMP)-faults/mhpc run -quick -j 4 -trace-out $(TMP)-faults/trace.json \
		-report $(TMP)-faults/manifest.json faultsweep > $(TMP)-faults/out-j4.txt
	$(TMP)-faults/mhpc run -quick -j 1 faultsweep > $(TMP)-faults/out-j1.txt
	cmp $(TMP)-faults/out-j4.txt $(TMP)-faults/out-j1.txt
	$(GO) run ./cmd/jsoncheck $(TMP)-faults/trace.json
	grep -q '"fault/' $(TMP)-faults/trace.json
	$(GO) run ./cmd/jsoncheck -counters faults.injected,faults.node_fail,faults.node_hang,faults.link_degrade,faults.checkpoints,faults.restarts,sim.events.scheduled,sim.events.dispatched \
		$(TMP)-faults/manifest.json

# End-to-end serving gate: build and exec the real mhpcd binary, then
# drive it over HTTP — an uncached run, a byte-identical cached replay,
# a job failing at capacity under admission overflow, and SIGTERMs
# mid-run that must exit 0 after the drain either stores the unwatched
# run (it finishes within -drain) or aborts it through the
# cancellation path with its checkpointed progress kept; then a
# -batch-window 10ms daemon on its own -store-dir must coalesce
# concurrent jobs into sweeps and store byte-identical tables, and,
# SIGKILLed mid-sweep once a task has committed, must resume the sweep
# after a restart on the same directory (serve.resumes > 0) and store
# the bytes of an uninterrupted one. Race mode on: the server's
# store/coalescer/admission state is all shared-memory concurrent.
serve-smoke:
	MHPC_SERVE_SMOKE=1 $(GO) test -race -run TestServeSmoke -count=1 ./cmd/mhpcd

# End-to-end observability gate: against the same real binary, submit a
# quick-registry job on the async path, require >= 3 SSE telemetry
# deltas before the done event, resolve the content-addressed result
# key, cancel a full-fidelity straggler over HTTP, and scrape /metrics
# as Prometheus 0.0.4 text exposition. Race mode on: the stream plane
# shares the collector with every running job.
stream-smoke:
	MHPC_STREAM_SMOKE=1 $(GO) test -race -run TestStreamSmoke -count=1 ./cmd/mhpcd

# Durable-store gate: populate a disk-backed mhpcd, SIGTERM it,
# restart on the same -store-dir, and require store.recovered to match,
# every key to replay as a cache hit, and serve.runs to stay 0 in the
# second life — the kill-and-restart proof that nothing re-executes.
store-smoke:
	MHPC_STORE_SMOKE=1 $(GO) test -race -run TestStoreSmoke -count=1 ./cmd/mhpcd

# Resumable-run gate: run a full-size fig6+green500 sweep with
# -ckpt-dir, SIGKILL it once the ledger holds committed sub-runs, and
# rerun the identical invocation at -j 1 and -j 4 — stdout must
# match the uninterrupted run byte for byte, the manifest must show
# ckpt.hits > 0 and pool.tasks strictly below the golden total: the
# committed-progress-is-never-recomputed proof against the real binary.
resume-smoke:
	MHPC_RESUME_SMOKE=1 $(GO) test -race -run TestResumeSmoke -count=1 ./cmd/mhpc
