// Command kernelrun executes a single application under one threading
// model and prints its timing plus the runtime's scheduler counters —
// the tool for poking at *why* a model behaves the way the figures
// show (steal counts, failed steals, parks, loop chunks).
//
// Usage:
//
//	kernelrun -app axpy|sum|matvec|matmul|fib|bfs|hotspot|lud|lavamd|srad
//	          [-model cilk_for] [-threads N] [-scale 1.0] [-reps 3]
//	          [-partitioner eager|lazy] [-shards N] [-balancer name]
//	          [-trace trace.json]
//
// -trace records per-worker scheduler events during the timed runs and
// writes them to the given path; inspect with cmd/traceview, which
// also converts to Chrome/Perfetto timeline JSON.
//
// -shards splits the model's runtime into N shards behind a
// shard.Resolver (-1 selects GOMAXPROCS) routed by -balancer
// (round-robin, random, least-loaded, affinity); the counter report
// then shows the merged totals followed by one group per shard, and a
// -trace capture carries shard-tagged worker lanes (s0/, s1/, ...).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"threading/internal/harness"
	"threading/internal/models"
	"threading/internal/sched"
	"threading/internal/shard"
	"threading/internal/stats"
	"threading/internal/tracez"
	"threading/internal/worksteal"
)

// appToFig maps application names to their experiment IDs.
var appToFig = map[string]string{
	"axpy":    "fig1",
	"sum":     "fig2",
	"matvec":  "fig3",
	"matmul":  "fig4",
	"fib":     "fig5",
	"bfs":     "fig6",
	"hotspot": "fig7",
	"lud":     "fig8",
	"lavamd":  "fig9",
	"srad":    "fig10",
}

func main() {
	var (
		app     = flag.String("app", "", "application name (axpy, sum, matvec, matmul, fib, bfs, hotspot, lud, lavamd, srad)")
		model   = flag.String("model", models.OMPFor, "threading model")
		threads = flag.Int("threads", runtime.GOMAXPROCS(0), "degree of parallelism")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		reps    = flag.Int("reps", 3, "timed repetitions")
		partStr = flag.String("partitioner", "eager", "loop partitioner for work-stealing models: eager (paper-faithful) or lazy")
		shards  = flag.Int("shards", 0, "split the model's runtime across N shards (0 = off, -1 = GOMAXPROCS)")
		balStr  = flag.String("balancer", "", "shard balancer: round-robin (default), random, least-loaded, or affinity")
		pinned  = flag.Bool("pinned", false, "lock the model's workers to OS threads (WithPinnedWorkers)")
		traceTo = flag.String("trace", "", "write per-worker scheduler events to this path (view with cmd/traceview)")
	)
	flag.Parse()

	part, err := worksteal.ParsePartitioner(*partStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelrun: %v\n", err)
		os.Exit(2)
	}

	figID, ok := appToFig[*app]
	if !ok {
		fmt.Fprintf(os.Stderr, "kernelrun: unknown app %q; have:", *app)
		for name := range appToFig {
			fmt.Fprintf(os.Stderr, " %s", name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	e, _ := harness.ByID(figID)
	supported := false
	for _, name := range e.Models {
		if name == *model {
			supported = true
		}
	}
	if !supported {
		fmt.Fprintf(os.Stderr, "kernelrun: %s does not run under %s (models: %v)\n",
			*app, *model, e.Models)
		os.Exit(2)
	}

	w := e.Prepare(*scale)
	fmt.Printf("%s under %s, %d threads — %s\n", *app, *model, *threads, w.Desc)

	var tracer *tracez.Tracer
	if *traceTo != "" {
		tracer = tracez.New(tracez.DefaultCapacity)
	}

	m, err := models.New(*model, *threads,
		models.WithPartitioner(part), models.WithTracer(tracer),
		models.WithShardCount(*shards), models.WithShardBalancer(*balStr),
		models.WithPinnedWorkers(*pinned))
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelrun: %v\n", err)
		os.Exit(1)
	}
	defer m.Close()
	resolver, sharded := models.Resolver(m)
	if sharded {
		fmt.Printf("sharding: %d shards, %s balancer\n", resolver.NumShards(), resolver.BalancerName())
	}

	if w.Check != nil {
		if err := w.Check(m); err != nil {
			fmt.Fprintf(os.Stderr, "kernelrun: verification failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("verification: ok (matches sequential reference)")
	}

	w.Run(m) // warm-up
	// Snapshot after the warm-up so the reported counters are the delta
	// covering exactly the timed runs.
	base, _ := m.SchedulerStats()
	var shardBase []shard.Stat
	if sharded {
		shardBase = resolver.ShardStats()
	}

	var ts []time.Duration
	// Label the timed runs so a CPU profile taken against this process
	// attributes samples to the kernel and model under study.
	pprof.Do(context.Background(), pprof.Labels("kernel", *app, "model", *model),
		func(context.Context) {
			for r := 0; r < *reps; r++ {
				start := time.Now()
				w.Run(m)
				ts = append(ts, time.Since(start))
			}
		})
	sample := stats.Summarize(ts)
	fmt.Printf("time: min=%v mean=%v median=%v max=%v (n=%d)\n",
		sample.Min.Round(time.Microsecond), sample.Mean.Round(time.Microsecond),
		sample.Median.Round(time.Microsecond), sample.Max.Round(time.Microsecond), sample.N)

	if s, ok := m.SchedulerStats(); ok {
		fmt.Printf("scheduler counters over %d timed runs:\n", *reps)
		for _, f := range s.Delta(base).Fields() {
			fmt.Printf("  %-14s %d\n", f.Name+":", f.Value)
		}
		if sharded {
			baseByID := make(map[int]sched.Snapshot, len(shardBase))
			for _, st := range shardBase {
				baseByID[st.ID] = st.Snapshot
			}
			for _, st := range resolver.ShardStats() {
				fmt.Printf("  shard s%d:\n", st.ID)
				for _, f := range st.Snapshot.Delta(baseByID[st.ID]).Fields() {
					fmt.Printf("    %-14s %d\n", f.Name+":", f.Value)
				}
			}
		}
	} else {
		fmt.Println("scheduler counters: none (model has no persistent runtime)")
	}

	if tracer != nil {
		snap := tracer.Snapshot()
		snap.Meta["kernel"] = *app
		snap.Meta["model"] = *model
		snap.Meta["threads"] = strconv.Itoa(*threads)
		fmt.Printf("  %-14s %d\n", "trace-dropped:", tracer.Dropped())
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "kernelrun: warning: trace rings overwrote %d events; the capture covers only the tail of the run\n", d)
		}
		if err := tracez.WriteFile(*traceTo, snap); err != nil {
			fmt.Fprintf(os.Stderr, "kernelrun: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace to %s (inspect with: traceview %s)\n", *traceTo, *traceTo)
	}
}
