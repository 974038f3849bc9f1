// Command loopdist measures the adaptive work-distribution win: it
// runs the paper's flat data kernels under cilk_for with the eager
// (paper-faithful) and lazy (demand-driven) partitioners and records
// the raw repetition timings per kernel, plus the lazy-over-eager
// speedup, in the shared benchmark-gate sample schema
// (internal/benchgate), so the file can be fed straight to
// `benchgate compare`.
//
// Usage:
//
//	loopdist [-threads N] [-reps 5] [-grain 64] [-pinned]
//	         [-out BENCH_loopdist.json]
//	loopdist -sweep strong|weak [-reps 5] [-pinned] [-out ...]
//
// Each kernel runs at two grains: the distribution-stressing -grain
// (many eager chunks, the regime where lazy splitting pays off) and
// grain 0, the cilk_for default heuristic min(2048, ceil(n/8p)).
//
// -sweep switches to the pSTL-Bench-style scaling suite: the flat
// axpy and sum loops under omp_for and eager cilk_for across a thread
// sweep 1..GOMAXPROCS (powers of two plus GOMAXPROCS). "strong" holds
// the total problem size fixed and reports parallel efficiency
// T(1)/(p*T(p)); "weak" grows the problem with the thread count
// (fixed per-thread size) and reports T(1)/T(p). Efficiency rides on
// each series in the sample schema (Series.Efficiency, Key.Sweep), so
// scaling runs gate through benchgate like fixed-thread runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"threading/internal/benchgate"
	"threading/internal/kernels"
	"threading/internal/models"
	"threading/internal/worksteal"
)

func main() {
	var (
		threads = flag.Int("threads", runtime.GOMAXPROCS(0), "work-stealing pool size")
		reps    = flag.Int("reps", 5, "timed repetitions per cell (minimum is reported)")
		grain   = flag.Int("grain", 64, "distribution-stressing grain size")
		pinned  = flag.Bool("pinned", false, "lock pool workers to OS threads (WithPinnedWorkers)")
		sweep   = flag.String("sweep", "", `scaling sweep: "strong" (fixed total size) or "weak" (fixed per-thread size); empty = partitioner contrast at -threads`)
		out     = flag.String("out", "BENCH_loopdist.json", "output JSON path (benchgate sample schema)")
	)
	flag.Parse()

	switch *sweep {
	case "":
		runDistribution(*threads, *reps, *grain, *pinned, *out)
	case "strong", "weak":
		runSweep(*sweep, *reps, *pinned, *out)
	default:
		fmt.Fprintf(os.Stderr, "loopdist: unknown -sweep %q (want strong or weak)\n", *sweep)
		os.Exit(2)
	}
}

// runDistribution is the original mode: the eager-vs-lazy partitioner
// contrast on every kernel at two grains.
func runDistribution(threads, reps, grain int, pinned bool, out string) {
	const (
		vecN = 1 << 18
		matN = 384
		mulN = 96
	)
	x := kernels.RandomVector(vecN, 11)
	y := kernels.RandomVector(vecN, 12)
	mva := kernels.RandomVector(matN*matN, 13)
	mvx := kernels.RandomVector(matN, 14)
	mvy := make([]float64, matN)
	mma := kernels.RandomVector(mulN*mulN, 15)
	mmb := kernels.RandomVector(mulN*mulN, 16)
	mmc := make([]float64, mulN*mulN)

	kernelSet := []struct {
		name string
		run  func(m models.Model)
	}{
		{"axpy", func(m models.Model) { kernels.Axpy(m, 2.0, x, y) }},
		{"sum", func(m models.Model) { kernels.Sum(m, 2.0, x) }},
		{"matvec", func(m models.Model) { kernels.Matvec(m, mva, mvx, mvy, matN) }},
		{"matmul", func(m models.Model) { kernels.Matmul(m, mma, mmb, mmc, mulN) }},
	}

	rep := benchgate.New("cmd/loopdist", benchgate.RunConfig{
		Threads: threads,
		Grain:   grain,
		Scale:   1,
		Reps:    reps,
		Kernels: []string{"axpy", "sum", "matvec", "matmul"},
		Pinned:  pinned,
	})
	for _, k := range kernelSet {
		for _, g := range []int{grain, 0} {
			eager, eagerSpawns := measure(threads, g, worksteal.Eager, pinned, reps, k.run)
			lazy, lazySplits := measure(threads, g, worksteal.Lazy, pinned, reps, k.run)
			rep.Add(series(k.name, threads, g, worksteal.Eager, pinned, eager,
				map[string]int64{"spawns_per_run": eagerSpawns}))
			rep.Add(series(k.name, threads, g, worksteal.Lazy, pinned, lazy,
				map[string]int64{"lazy_splits_per_run": lazySplits}))
			eagerMin, lazyMin := minNs(eager), minNs(lazy)
			speedup := 0.0
			if lazyMin > 0 {
				speedup = float64(eagerMin) / float64(lazyMin)
			}
			fmt.Printf("%-8s grain=%-7s eager=%-12v lazy=%-12v lazy speedup=%.2fx\n",
				k.name, grainName(g), time.Duration(eagerMin), time.Duration(lazyMin), speedup)
		}
	}
	writeReport(out, rep)
}

// sweepThreads is the scaling-suite thread axis: powers of two up to
// GOMAXPROCS, plus GOMAXPROCS itself when it is not a power of two.
func sweepThreads() []int {
	max := runtime.GOMAXPROCS(0)
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	return append(out, max)
}

// sweepBaseN is the strong-scaling total (and weak-scaling per-thread)
// iteration count of the flat loops.
const sweepBaseN = 1 << 18

// runSweep is the scaling mode: axpy and sum under the work-sharing
// reference (omp_for) and eager cilk_for at the default grain
// heuristic, across the thread sweep. kind is "strong" or "weak".
func runSweep(kind string, reps int, pinned bool, out string) {
	ps := sweepThreads()
	rep := benchgate.New("cmd/loopdist", benchgate.RunConfig{
		Threads: ps[len(ps)-1],
		Scale:   1,
		Reps:    reps,
		Kernels: []string{"axpy", "sum"},
		Pinned:  pinned,
		Sweep:   kind,
	})

	fmt.Printf("%s scaling, threads %v, base n=%d\n", kind, ps, sweepBaseN)
	fmt.Printf("%-8s %-10s %8s %14s %12s\n", "kernel", "model", "threads", "min", "efficiency")
	for _, kernel := range []string{"axpy", "sum"} {
		for _, model := range []string{models.OMPFor, models.CilkFor} {
			var t1 int64 // min at p=1, the efficiency reference
			for _, p := range ps {
				n := sweepBaseN
				if kind == "weak" {
					n = sweepBaseN * p
				}
				samples := measureSweep(kernel, model, p, pinned, reps, n)
				min := minNs(samples)
				if p == 1 {
					t1 = min
				}
				eff := efficiency(kind, t1, min, p)
				rep.Add(benchgate.Series{
					Key: benchgate.Key{
						Kernel:      kernel,
						Model:       model,
						Threads:     p,
						Grain:       0,
						Partitioner: partitionerTag(model),
						Pinned:      pinned,
						Sweep:       kind,
					},
					SampleNs:   samples,
					Efficiency: eff,
				})
				fmt.Printf("%-8s %-10s %8d %14v %11.2f%%\n",
					kernel, model, p, time.Duration(min), 100*eff)
			}
		}
	}
	writeReport(out, rep)
}

// measureSweep times reps runs of the named flat kernel under one
// model at one thread count over an n-element problem, allocating
// fresh data per cell so weak-scaling sizes do not alias.
func measureSweep(kernel, model string, threads int, pinned bool, reps, n int) []int64 {
	x := kernels.RandomVector(n, 11)
	y := kernels.RandomVector(n, 12)
	m, err := models.New(model, threads, models.WithPinnedWorkers(pinned))
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopdist: %v\n", err)
		os.Exit(2)
	}
	defer m.Close()
	run := func() { kernels.Axpy(m, 2.0, x, y) }
	if kernel == "sum" {
		run = func() { kernels.Sum(m, 2.0, x) }
	}
	run() // warm-up
	var sampleNs []int64
	for r := 0; r < reps; r++ {
		start := time.Now()
		run()
		sampleNs = append(sampleNs, time.Since(start).Nanoseconds())
	}
	return sampleNs
}

// efficiency computes parallel efficiency from the p=1 reference and
// the p-thread minimum: T1/(p*Tp) for strong scaling (perfect speedup
// keeps it at 1), T1/Tp for weak (perfect scaling keeps the time
// flat).
func efficiency(kind string, t1, tp int64, p int) float64 {
	if tp <= 0 || t1 <= 0 {
		return 0
	}
	if kind == "weak" {
		return float64(t1) / float64(tp)
	}
	return float64(t1) / (float64(p) * float64(tp))
}

// partitionerTag is the schema partitioner spelling for the sweep
// models: eager for cilk_for, "-" for omp_for.
func partitionerTag(model string) string {
	if model == models.CilkFor {
		return worksteal.Eager.String()
	}
	return "-"
}

func writeReport(out string, rep *benchgate.Report) {
	if err := benchgate.WriteFile(out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "loopdist: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
}

func series(kernel string, threads, grain int, part worksteal.Partitioner,
	pinned bool, sampleNs []int64, counters map[string]int64) benchgate.Series {

	return benchgate.Series{
		Key: benchgate.Key{
			Kernel:      kernel,
			Model:       models.CilkFor,
			Threads:     threads,
			Grain:       grain,
			Partitioner: part.String(),
			Pinned:      pinned,
		},
		SampleNs: sampleNs,
		Counters: counters,
	}
}

// measure times reps runs of run under a fresh cilk_for model with the
// given grain and partitioner, returning every wall-time sample and
// the per-run task-creation counter (spawns for eager, splits for
// lazy).
func measure(threads, grain int, part worksteal.Partitioner, pinned bool,
	reps int, run func(m models.Model)) (sampleNs []int64, created int64) {

	m, err := models.New(models.CilkFor, threads,
		models.WithGrain(grain), models.WithPartitioner(part),
		models.WithPinnedWorkers(pinned))
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopdist: %v\n", err)
		os.Exit(2)
	}
	defer m.Close()
	run(m) // warm-up
	base, _ := m.SchedulerStats()
	for r := 0; r < reps; r++ {
		start := time.Now()
		run(m)
		sampleNs = append(sampleNs, time.Since(start).Nanoseconds())
	}
	end, _ := m.SchedulerStats()
	s := end.Delta(base)
	if part == worksteal.Lazy {
		return sampleNs, s.LazySplits / int64(reps)
	}
	return sampleNs, s.Spawns / int64(reps)
}

func minNs(ns []int64) int64 {
	var min int64
	for _, v := range ns {
		if min == 0 || v < min {
			min = v
		}
	}
	return min
}

func grainName(g int) string {
	if g == 0 {
		return "default"
	}
	return fmt.Sprint(g)
}
