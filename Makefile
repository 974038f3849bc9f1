GO ?= go

.PHONY: all build test race race-sched vet lint lint-fix bench-module surface bench-smoke bench-loopdist bench-scaling bench-record bench-gate serve-smoke serve-sweep metrics-smoke trace-smoke clean

all: build vet lint test bench-module bench-gate serve-smoke metrics-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detect just the scheduler hot paths (work stealing, deques,
# shared sched plumbing, the futures join paths the help-first work
# leans on, and the shard resolver's routing/drain machinery) — the
# focused loop for partitioner and balancer work.
race-sched:
	$(GO) test -race -count=2 ./internal/worksteal/... ./internal/deque/... ./internal/sched/... ./internal/futures/... ./internal/shard/...

vet:
	$(GO) vet ./...

# threadvet: the repo's own go/analysis-style suite enforcing the
# runtimes' concurrency contracts (joinleak, ctxdrop, lockspawn,
# atomicmix, grainconst, lockorder, blockingtask, racecapture,
# handlereuse). Fails on any unsuppressed diagnostic.
lint:
	$(GO) run ./cmd/threadvet ./...

# Apply threadvet's suggested fixes in place (ctxdrop call rewrites,
# redundant-Close deletion, ...) and report the findings that need a
# human. Applying twice is a no-op.
lint-fix:
	$(GO) run ./cmd/threadvet -fix ./...

# The benchmark of record (benchmark/, BENCHMARK.json) is its own Go
# module, so the root ./... patterns above do not see it. Vet, test
# and lint it here: benchmark/adapter.go is the one importer of
# threading/internal/..., which makes this the compile-time guard that
# the surfaces the benchmark pins (models.New, models.NewExecutor,
# serve.New, ...) still have the signatures it was written against.
bench-module:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .
	cd benchmark && $(GO) run threading/cmd/threadvet ./...

# The three size figures CHANGES.md quotes for surface-reducing PRs:
# non-test Go lines outside benchmark/ and testdata/, and the exported
# symbol listings of internal/models and of the root package.
surface:
	@printf 'non-test Go lines:       '; find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l
	@printf 'go doc internal/models:  '; $(GO) doc -short ./internal/models | wc -l
	@printf 'go doc root package:     '; $(GO) doc -short . | wc -l

# A fast, single-repetition pass over two figures — enough to catch a
# harness regression without a full sweep. The raw samples land in
# BENCH_smoke.json (benchgate schema), so even the smoke run leaves a
# compare-able artifact.
bench-smoke:
	$(GO) run ./cmd/threadbench -fig fig1,fig5 -threads 1,2 -reps 1 -scale 0.1 -out BENCH_smoke.json

# Regenerate the eager-vs-lazy loop-distribution measurements
# (benchgate schema; feed two runs to `benchgate compare`).
bench-loopdist:
	$(GO) run ./cmd/loopdist

# pSTL-Bench-style scaling suite: the flat loops under omp_for and
# eager cilk_for across a 1..GOMAXPROCS thread sweep, once at fixed
# total size (strong) and once at fixed per-thread size (weak). Each
# series carries its parallel efficiency in the benchgate schema.
bench-scaling:
	$(GO) run ./cmd/loopdist -sweep strong -out BENCH_scaling_strong.json
	$(GO) run ./cmd/loopdist -sweep weak -out BENCH_scaling_weak.json

# Re-record the committed kernel baselines the regression gate
# compares against: the single-pool suite (plus the spawn-heavy fib
# pair and the pinned-worker twins the fib-ordering and
# pinning-overhead invariants are defined over) and the sharded series
# the sharding-overhead invariant is defined over. Run on the machine
# of record after an intentional perf change, and commit the results.
bench-record:
	$(GO) run ./cmd/benchgate record -kernels axpy,sum,matvec,fib -pinned -out BENCH_kernels.json
	$(GO) run ./cmd/benchgate record -kernels axpy,sum -shards -1 -balancer least-loaded -out BENCH_shard.json
	$(GO) run ./cmd/loadsweep -out BENCH_latency.json

# Statistical benchmark-regression gate: fresh samples against the
# committed baseline, plus the paper's directional invariants
# (work-sharing <= eager work-stealing on flat loops; lazy <= eager at
# stress grain). Loose -ratio so shared/noisy machines don't flap;
# exit 1 means a real ordering inversion or a significant regression.
bench-gate:
	$(GO) run ./cmd/benchgate check -reps 3 -alpha 0.05 -ratio 1.3
	$(GO) run ./cmd/benchgate check -baseline BENCH_shard.json -reps 3 -alpha 0.05 -ratio 1.3

# Tail-latency gate, mirroring CI's latency-smoke lane: `benchgate
# check` detects the latency baseline (BENCH_latency.json, written by
# cmd/loadsweep), boots an in-process threadserve per model, re-sweeps
# the two lowest offered-load points, and gates the tail invariants
# (low-load p99 parity; sharded least-loaded p99 within 1.1x of
# single-pool). Tight -alpha so percentile noise cannot flap the gate;
# the bounds ride on the invariants themselves.
serve-smoke:
	$(GO) run ./cmd/benchgate check -baseline BENCH_latency.json -points 2 -requests 300 -alpha 0.01

# Full open-loop service sweep: every default runtime across the
# default offered-load points, with the per-point tail table on
# stdout. Use -out via cmd/loadsweep directly to record a baseline.
serve-sweep:
	$(GO) run ./cmd/loadsweep

# Telemetry smoke: boot a real threadserve, load it, scrape /metrics,
# and assert the exposition carries every required metric family with
# a quiet stall watchdog — the in-process twin of CI's metrics-smoke
# job (which curls the families over TCP), plus the zero-allocation
# pins on the metric fast paths and the watchdog's injected-stall
# unit tests.
metrics-smoke:
	$(GO) test -count=1 -run 'TestMetricsSmoke' ./cmd/threadserve/
	$(GO) test -count=1 -run 'TestMetrics|TestRequestID|TestUpdatesZeroAlloc|TestWatchdog' ./internal/serve/ ./internal/metrics/

# End-to-end exercise of the tracing pipeline: a small Sum+Fib sweep
# with -trace, then traceview converts the raw events to Chrome
# trace-event JSON and prints the derived-metrics summary. Leaves
# trace-smoke.json + trace-smoke.chrome.json for inspection.
trace-smoke:
	$(GO) run ./cmd/threadbench -fig fig2,fig5 -threads 2 -reps 1 -scale 0.1 -trace trace-smoke.json
	$(GO) run ./cmd/traceview trace-smoke.json

clean:
	$(GO) clean ./...
