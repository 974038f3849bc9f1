GO ?= go

.PHONY: all build test race race-sched vet bce lint lint-fix bench-module surface bench-smoke bench-gate metrics-smoke trace-smoke clean

all: build vet bce lint test race bench-module bench-gate metrics-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detect just the scheduler hot paths (work stealing, the
# fork-join team's region-end park/wake handshake, deques, shared
# sched plumbing, the futures join paths the help-first work leans on,
# the shard resolver's routing/drain machinery, and the models and
# serve packages, whose tests are where concurrent executor callers run
# a busy team's loops as serialized regions) — the focused loop for
# partitioner, balancer and idle-wait work. The next two lines run the
# lock-free handshake stress tests once more: the fork-join team's
# (the dynamic schedule's claim-and-steal, the region-end gate, region
# entry's poll-then-park wait) and the task core's push/steal/park/wake
# handshake both runtimes share. The
# last two run the loop-distribution, PathFinder and serve kernel
# benchmarks once, as CI's sched-race job does: BenchmarkExtPathFinder
# fails unless every data model's 100 x 100 000 DP equals Seq, and
# BenchmarkServeKernels unless every serve chunk body matches its naive
# loop at 2^17 elements.
race-sched:
	$(GO) test -race -count=2 ./internal/worksteal/... ./internal/forkjoin/... ./internal/deque/... ./internal/sched/... ./internal/futures/... ./internal/shard/... ./internal/models/... ./internal/serve/...
	$(GO) test -race -count=3 -run 'TestDynamicStealStress|TestRegionEndGateStress|TestRegionEntryParkStress' ./internal/forkjoin/...
	$(GO) test -race -count=3 -run 'TestTaskCoreHandshakeStress' ./internal/sched/...
	$(GO) test -run=NONE -bench='LoopDist|ExtPathFinder' -benchtime=1x .
	$(GO) test -run=NONE -bench=ServeKernels -benchtime=1x ./internal/serve/

# go vet, then gofmt: fails listing any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# The serve's vector chunk bodies (internal/serve/kernels.go) must
# compile without an indexed bounds check: the compiler's check_bce
# debug output may list the re-slices at function entry
# (IsSliceInBounds) but no IsInBounds in that file. An index the
# compiler cannot prove puts a compare and branch back on every element.
bce:
	@out=$$($(GO) build -gcflags=-d=ssa/check_bce/debug=1 ./internal/serve/ 2>&1) || { echo "$$out"; exit 1; }; \
	if echo "$$out" | grep 'serve/kernels.go:.*Found IsInBounds'; then \
		echo "bce: indexed bounds checks in internal/serve/kernels.go"; exit 1; \
	fi; \
	echo "bce: internal/serve/kernels.go has no indexed bounds check"

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
# The last step runs every workload for two seconds untraced and fails
# unless the result line (the last line of output) reports no failed
# operation, so the benchmark is executed, not just compiled.
BENCH_WORKLOADS = loops-coarse loops-fine tasks serve-light serve-heavy

bench-module:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .
	cd benchmark && $(GO) run threading/cmd/threadvet ./...
	@for w in $(BENCH_WORKLOADS); do \
		last=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1); \
		case "$$last" in *'"failed":0'*) echo "bench-module: $$w ok" ;; \
		*) echo "bench-module: $$w: $$last"; exit 1 ;; esac; \
	done

# The three size figures CHANGES.md quotes for surface-reducing PRs:
# non-test Go lines outside benchmark/ and testdata/, and the exported
# symbol listings of internal/models and of the root package.
surface:
	@printf 'non-test Go lines:       '; find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l
	@printf 'go doc internal/models:  '; $(GO) doc -short ./internal/models | wc -l
	@printf 'go doc root package:     '; $(GO) doc -short . | wc -l

# A fast, single-repetition pass over two figures — enough to catch a
# harness regression without a full sweep.
bench-smoke:
	$(GO) run ./cmd/threadbench -fig fig1,fig5 -threads 1,2 -reps 1 -scale 0.1

# The performance gate: fresh samples at threads = GOMAXPROCS of every
# series the invariants read, then the invariants themselves — the
# paper's orderings (omp_for <= eager cilk_for and lazy <= eager on the
# flat loops, cilk_spawn <= omp_task on fib), the pinning (1.05x) and
# sharding (1.1x) overhead bounds, and low-load p99 parity across
# service runtimes. No baseline file: every claim is a ratio between
# two series of the same run. Exit 1 is a violated claim; exit 2 means
# GOMAXPROCS < 2, where the claims cannot be measured.
bench-gate:
	$(GO) run ./cmd/benchgate

# Telemetry smoke: boot a real threadserve, load it, scrape /metrics,
# and assert the exposition carries every required metric family with
# a quiet stall watchdog — the in-process twin of CI's metrics-smoke
# job (which curls the families over TCP), plus threadserve's SIGINT
# exit-130 and trace-on-exit contract, the zero-allocation pins on the
# metric fast paths and the watchdog's injected-stall unit tests.
metrics-smoke:
	$(GO) test -count=1 -run 'TestMetricsSmoke|TestInterrupt|TestTraceWrittenOnExit' ./cmd/threadserve/
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
