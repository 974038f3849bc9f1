// Command threadbench regenerates the performance figures of
// "Comparison of Threading Programming Models" (Salehian, Liu, Yan;
// 2017): five micro-kernels (Axpy, Sum, Matvec, Matmul, Fibonacci)
// and five Rodinia applications (BFS, HotSpot, LUD, LavaMD, SRAD),
// each executed under six threading-model configurations across a
// sweep of thread counts.
//
// Usage:
//
//	threadbench [-fig fig1,fig5] [-threads 1,2,4] [-reps 3]
//	            [-scale 1.0] [-partitioner eager|lazy] [-stats]
//	            [-shards 4] [-balancer least-loaded]
//	            [-verify] [-csv] [-out samples.json] [-list]
//	            [-trace trace.json] [-cpuprofile cpu.pb.gz]
//	            [-memprofile mem.pb.gz]
//
// With no -fig, all ten experiments run. -scale shrinks or grows the
// workloads relative to the laptop-scale defaults (the paper's sizes
// correspond to roughly -scale 12 for the vector kernels).
// -partitioner selects how the work-stealing models decompose loops:
// "eager" (default) is the paper-faithful cilk_for decomposition and
// must be used when reproducing the figures; "lazy" enables
// demand-driven splitting. -stats appends per-cell scheduler counters
// to the tables. -shards splits each pooled model's runtime into N
// shards behind a shard.Resolver (-1 selects GOMAXPROCS; models
// without a persistent runtime ignore it) and -balancer picks how
// chunks are routed across shards; with -stats the tables then break
// the counters out per shard. -out additionally writes every raw repetition in the
// benchmark-gate sample schema (internal/benchgate), so even a smoke
// run leaves an artifact `benchgate compare` can consume.
//
// Observability: -trace records per-worker scheduler events across the
// whole sweep and writes them as raw tracez JSON (inspect or convert
// with cmd/traceview); combined with -stats, the counter tables gain a
// "dropped" column counting events the rings overwrote per cell, and a
// nonzero sweep-wide total is warned about on stderr. -cpuprofile/-memprofile write standard pprof
// profiles; worker goroutines carry pprof labels (runtime, worker) so
// `go tool pprof -tagfocus` can isolate one runtime's workers. All
// three artifacts are written even when the sweep is interrupted with
// Ctrl-C, so a partial run still leaves something to inspect.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"threading/internal/benchgate"
	"threading/internal/harness"
	"threading/internal/shard"
	"threading/internal/tracez"
	"threading/internal/worksteal"
)

func main() {
	// All work happens in run so deferred artifact writes (profiles,
	// trace) execute on every exit path, including interrupt.
	os.Exit(run())
}

func run() int {
	var (
		figs    = flag.String("fig", "", "comma-separated experiment IDs (fig1..fig10); empty = all")
		threads = flag.String("threads", "", "comma-separated thread counts; empty = 1,2,4,... up to 2*GOMAXPROCS")
		reps    = flag.Int("reps", 3, "timed repetitions per cell (minimum is reported)")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		partStr = flag.String("partitioner", "eager", "loop partitioner for work-stealing models: eager (paper-faithful) or lazy")
		stat    = flag.Bool("stats", false, "append per-cell scheduler counters to the tables")
		verify  = flag.Bool("verify", false, "verify each model against the sequential reference before timing")
		csv     = flag.Bool("csv", false, "emit CSV instead of tables")
		out     = flag.String("out", "", "also write raw samples to this path in the benchmark-gate schema (compare with cmd/benchgate)")
		list    = flag.Bool("list", false, "list experiments and exit")
		shards  = flag.Int("shards", 0, "split each pooled model across N runtime shards (0 = off, -1 = GOMAXPROCS)")
		balStr  = flag.String("balancer", "", "shard balancer: round-robin (default), random, least-loaded, or affinity")
		pinned  = flag.Bool("pinned", false, "lock pooled runtimes' workers to OS threads (WithPinnedWorkers)")
		traceTo = flag.String("trace", "", "write per-worker scheduler events to this path (view with cmd/traceview)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	part, err := worksteal.ParsePartitioner(*partStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "threadbench: %v\n", err)
		return 2
	}
	if _, err := shard.ParseBalancer(*balStr); err != nil {
		fmt.Fprintf(os.Stderr, "threadbench: %v\n", err)
		return 2
	}

	if *list {
		for _, id := range harness.IDs() {
			e, _ := harness.ByID(id)
			fmt.Printf("%-6s %s\n       paper: %s\n", e.ID, e.Title, e.Finding)
		}
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "threadbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "threadbench: start cpu profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote cpu profile to %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "threadbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "threadbench: write heap profile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", *memProf)
		}()
	}

	var tracer *tracez.Tracer
	if *traceTo != "" {
		tracer = tracez.New(tracez.DefaultCapacity)
		defer func() {
			snap := tracer.Snapshot()
			snap.Meta["tool"] = "threadbench"
			snap.Meta["scale"] = fmt.Sprintf("%g", *scale)
			if err := tracez.WriteFile(*traceTo, snap); err != nil {
				fmt.Fprintf(os.Stderr, "threadbench: %v\n", err)
				return
			}
			if d := tracer.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "threadbench: warning: trace rings overwrote %d events; the capture covers only the tail of the sweep\n", d)
			}
			fmt.Fprintf(os.Stderr, "wrote trace to %s (inspect with: traceview %s)\n", *traceTo, *traceTo)
		}()
	}

	cfg := harness.SuiteConfig{
		Config: harness.Config{
			Reps:        *reps,
			Scale:       *scale,
			Verify:      *verify,
			Partitioner: part,
			Stats:       *stat,
			KeepSamples: *out != "",
			Tracer:      tracer,
			Shards:      *shards,
			Balancer:    *balStr,
			Pinned:      *pinned,
		},
		CSV: *csv,
	}
	if *figs != "" {
		cfg.Experiments = strings.Split(*figs, ",")
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "threadbench: bad thread count %q\n", part)
				return 2
			}
			cfg.Threads = append(cfg.Threads, n)
		}
	}

	// Ctrl-C cancels the suite at the next measurement boundary
	// instead of killing the process mid-sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	results, err := harness.RunSuiteCtx(ctx, cfg, os.Stdout)
	// Export whatever completed — an interrupted sweep still leaves a
	// compare-able partial artifact.
	if *out != "" && len(results) > 0 {
		rep := benchgate.FromResults(results, "cmd/threadbench", *reps, *scale)
		if werr := benchgate.WriteFile(*out, rep); werr != nil {
			fmt.Fprintf(os.Stderr, "threadbench: %v\n", werr)
		} else {
			fmt.Printf("wrote %s (%d series)\n", *out, len(rep.Series))
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "threadbench: interrupted; partial results above")
			return 130
		}
		fmt.Fprintf(os.Stderr, "threadbench: %v\n", err)
		return 1
	}
	if !*csv {
		fmt.Println("summary (at the largest thread count):")
		for _, r := range results {
			s := harness.Summarize(r)
			fmt.Printf("  %-6s best=%-11s worst=%-11s worst/best=%.2fx\n",
				s.Experiment, s.Best, s.Worst, s.WorstOverBest)
		}
	}
	return 0
}
