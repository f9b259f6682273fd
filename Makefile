# Verification gates for the mobilehpc reproduction. `make check` is
# the full wall a PR must clear: vet, build, the tier-1 test suite, the
# race smoke pass that exercises the parallel experiment pool (and the
# fault-injection package), the telemetry smoke run that proves the
# exporters emit valid JSON without perturbing stdout, the faults
# smoke run that proves a fault-injected sweep is byte-identical across
# -j and lands its injected events in the run manifest, and the serve
# smoke run that boots the real mhpcd binary and exercises cache,
# admission control, and SIGTERM drain over live HTTP, the stream
# smoke run that drives the async job plane — SSE telemetry deltas,
# job cancellation, and the Prometheus /metrics exposition — against
# the same real binary, the store smoke run that kills and restarts
# that binary on one -store-dir and requires every precomputed key to
# survive as a cache hit with zero re-executions, the load smoke
# run that replays a zipf request mix through cmd/mhpcload against a
# coalescing mhpcd and validates the resulting mhpc-load-report/v1,
# and the resume smoke run that SIGKILLs a checkpointing mhpc sweep
# mid-flight and requires the rerun to restore the committed progress
# with byte-identical output across -j.
GO ?= go
TMP ?= /tmp/mhpc-smoke

.PHONY: check vet build test race bench bench-smoke bench-snapshot bench-diff telemetry-smoke faults-smoke serve-smoke stream-smoke store-smoke load-smoke resume-smoke

check: vet build test race telemetry-smoke faults-smoke bench-smoke bench-diff serve-smoke stream-smoke store-smoke load-smoke resume-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Fast anti-rot gate for the engine micro-benches: a fixed 100
# iterations (no timing claims, race off) proves they still compile and
# run. Part of `make check`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EngineThroughput|TransferChunked' -benchtime 100x \
		./internal/sim ./internal/interconnect

# Perf trajectory snapshot: run the headline benches and record them in
# BENCH_v9.json (schema mhpc-bench-snapshot/v1; format documented in
# DESIGN.md, Engine performance). The engine/interconnect micro-benches
# and the obs scrape path get real benchtime; the multi-second macro
# benches — including the task-latency quantile bench and the serving
# tier's cache-cold zipf mix — run a fixed few iterations.
bench-snapshot:
	rm -rf $(TMP)-bench && mkdir -p $(TMP)-bench
	$(GO) test -run '^$$' -bench 'EngineThroughput|TransferChunked|EventDispatch|ProcSwitch' \
		-benchmem ./internal/sim ./internal/interconnect > $(TMP)-bench/out.txt
	$(GO) test -run '^$$' -bench 'ScrapeRange|HistogramObserve' -benchmem ./internal/obs \
		>> $(TMP)-bench/out.txt
	$(GO) test -run '^$$' -bench 'RunAllJobs|Green500HPL|PoolTaskLatency' -benchtime 1x -benchmem . \
		>> $(TMP)-bench/out.txt
	$(GO) test -run '^$$' -bench 'ServeZipfCold' -benchtime 3x -benchmem ./cmd/mhpcd \
		>> $(TMP)-bench/out.txt
	$(GO) run ./cmd/benchsnap -o BENCH_v9.json < $(TMP)-bench/out.txt
	$(GO) run ./cmd/jsoncheck BENCH_v9.json

# Perf regression gate over the committed snapshots: the v9 trajectory
# must hold the line against v8 — no throughput metric (events/s,
# chunks/s, req/s) down more than 10%, no steady-state bench newly
# allocating. Pure file comparison, so it is deterministic on any
# machine.
bench-diff:
	$(GO) run ./cmd/benchdiff BENCH_v8.json BENCH_v9.json

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
# byte-identical at -j 4 vs serial with telemetry on, and the injected
# fault events (plus the replay's checkpoints and restarts) must land
# in the run manifest with non-zero counts.
faults-smoke:
	rm -rf $(TMP)-faults && mkdir -p $(TMP)-faults
	$(GO) build -o $(TMP)-faults/mhpc ./cmd/mhpc
	$(TMP)-faults/mhpc run -quick -j 4 -trace-out $(TMP)-faults/trace.json \
		-report $(TMP)-faults/manifest.json faultsweep > $(TMP)-faults/out-j4.txt
	$(TMP)-faults/mhpc run -quick -j 1 faultsweep > $(TMP)-faults/out-j1.txt
	cmp $(TMP)-faults/out-j4.txt $(TMP)-faults/out-j1.txt
	$(GO) run ./cmd/jsoncheck $(TMP)-faults/trace.json
	$(GO) run ./cmd/jsoncheck -counters faults.injected,faults.node_fail,faults.node_hang,faults.link_degrade,faults.checkpoints,faults.restarts \
		$(TMP)-faults/manifest.json

# End-to-end serving gate: build and exec the real mhpcd binary, then
# drive it over HTTP — an uncached run, a byte-identical cached replay,
# a 429 under admission overflow, and a SIGTERM mid-flight that must
# drain (aborting the straggler through the cancellation path) and
# exit 0. Race mode on: the server's cache/singleflight/admission
# state is all shared-memory concurrent.
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

# Load-replay gate: drive a coalescing (-batch-window 10ms) mhpcd with
# cmd/mhpcload's seeded zipf mix — open-loop arrivals, a client-abandon
# fraction — then require the emitted mhpc-load-report/v1 to pass both
# the in-test invariants and jsoncheck's schema validation of the
# exported artefact.
load-smoke:
	rm -rf $(TMP)-load && mkdir -p $(TMP)-load
	MHPC_LOAD_SMOKE=1 MHPC_LOAD_REPORT_OUT=$(TMP)-load/report.json \
		$(GO) test -race -run TestLoadSmoke -count=1 ./cmd/mhpcload
	$(GO) run ./cmd/jsoncheck $(TMP)-load/report.json

# Resumable-run gate: run a full-size fig6+green500 sweep with
# -ckpt-dir, SIGKILL it once the ledger holds committed sub-runs, and
# rerun the identical invocation at -j 1 and -j 4 — stdout must
# match the uninterrupted run byte for byte, the manifest must show
# ckpt.hits > 0 and pool.tasks strictly below the golden total: the
# committed-progress-is-never-recomputed proof against the real binary.
resume-smoke:
	MHPC_RESUME_SMOKE=1 $(GO) test -race -run TestResumeSmoke -count=1 ./cmd/mhpc
