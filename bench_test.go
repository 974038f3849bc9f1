// Benchmarks regenerating the paper's evaluation: one benchmark per
// table (I-III, rendering + queries) and one per figure (1-10), each
// figure with a sub-benchmark per threading model plus the sequential
// reference, followed by the ablation benchmarks DESIGN.md calls out.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=BenchmarkFig5 -benchmem
//
// The figure benchmarks run at a reduced scale so the whole suite
// finishes in minutes; cmd/threadbench runs the full-size sweep.
package threading_test

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"threading/internal/deque"
	"threading/internal/features"
	"threading/internal/forkjoin"
	"threading/internal/harness"
	"threading/internal/kernels"
	"threading/internal/models"
	"threading/internal/rodinia/kmeans"
	"threading/internal/rodinia/pathfinder"
	"threading/internal/uts"
	"threading/internal/worksteal"
)

// benchScale shrinks workloads relative to the threadbench defaults so
// that `go test -bench=.` completes quickly.
const benchScale = 0.02

// benchThreads is the parallelism for the model sub-benchmarks.
var benchThreads = runtime.GOMAXPROCS(0)

// benchFigure runs one paper figure as a benchmark: sequential
// reference plus one sub-benchmark per model.
func benchFigure(b *testing.B, id string) {
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	w := e.Prepare(benchScale)
	b.Logf("%s: %s [%s]", e.ID, e.Title, w.Desc)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.Seq()
		}
	})
	for _, name := range e.Models {
		name := name
		b.Run(name, func(b *testing.B) {
			m := models.MustNew(name, benchThreads)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(m)
			}
		})
	}
}

// --- Tables I-III (qualitative comparison) ---------------------------

func BenchmarkTableI(b *testing.B)   { benchTable(b, 1) }
func BenchmarkTableII(b *testing.B)  { benchTable(b, 2) }
func BenchmarkTableIII(b *testing.B) { benchTable(b, 3) }

func benchTable(b *testing.B, n int) {
	t := features.Tables()[n-1]
	b.Run("render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sb strings.Builder
			t.Render(&sb)
			if sb.Len() == 0 {
				b.Fatal("empty render")
			}
		}
	})
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, api := range features.APIs() {
				for _, f := range t.Columns {
					t.Supports(api, f)
				}
			}
		}
	})
}

// --- Figures 1-10 (performance comparison) ---------------------------

func BenchmarkFig1Axpy(b *testing.B)    { benchFigure(b, "fig1") }
func BenchmarkFig2Sum(b *testing.B)     { benchFigure(b, "fig2") }
func BenchmarkFig3Matvec(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFig4Matmul(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFig5Fib(b *testing.B)     { benchFigure(b, "fig5") }
func BenchmarkFig6BFS(b *testing.B)     { benchFigure(b, "fig6") }
func BenchmarkFig7HotSpot(b *testing.B) { benchFigure(b, "fig7") }
func BenchmarkFig8LUD(b *testing.B)     { benchFigure(b, "fig8") }
func BenchmarkFig9LavaMD(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFig10SRAD(b *testing.B)   { benchFigure(b, "fig10") }

// --- Ablations (DESIGN.md section 5) ---------------------------------

// BenchmarkAblationDeque runs uncut recursive Fibonacci — the paper's
// Fig. 5 — as {omp_task on a team, cilk_spawn on a pool} × {lock-based
// deques (the Intel OpenMP task runtime), lock-free Chase-Lev deques
// (Cilk Plus)}. Both schedulers run their tasks on the same task core
// (sched.TaskCore), so the deque column isolates the variable the
// paper names, and the scheduler column what the OpenMP team adds on
// top: region entry and the Master that builds the tree. On a host
// with few cores at most one thief runs at a time, which bounds the
// lock penalty the paper measured (see EXPERIMENTS.md).
func BenchmarkAblationDeque(b *testing.B) {
	const fibN = 21
	for _, kind := range []deque.Kind{deque.KindLocked, deque.KindChaseLev} {
		b.Run("omp_task/"+kind.String(), func(b *testing.B) {
			var opts []forkjoin.Option
			if kind == deque.KindChaseLev {
				opts = append(opts, forkjoin.WithLockFreeTasks())
			}
			m, err := models.OverTeam(models.OMPTask, forkjoin.NewTeam(benchThreads, opts...))
			benchFib(b, m, err, fibN)
		})
		b.Run("cilk_spawn/"+kind.String(), func(b *testing.B) {
			m, err := models.OverPool(models.CilkSpawn,
				worksteal.NewPool(benchThreads, worksteal.WithDequeKind(kind)), 0)
			benchFib(b, m, err, fibN)
		})
	}
}

// benchFib times kernels.FibTask(m, n) and closes m.
func benchFib(b *testing.B, m models.Model, err error, n int) {
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	want := kernels.FibSeq(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := kernels.FibTask(m, n, 0); got != want {
			b.Fatalf("fib = %d, want %d", got, want)
		}
	}
}

// BenchmarkAblationGrain sweeps cilk_for's grain size on a flat loop:
// small grains expose the steal-serialized distribution cost the
// paper blames for cilk_for's data-parallel losses.
func BenchmarkAblationGrain(b *testing.B) {
	const n = 200_000
	x := kernels.RandomVector(n, 1)
	y := kernels.RandomVector(n, 2)
	for _, grain := range []int{16, 128, 1024, 0 /* default heuristic */} {
		grain := grain
		name := "default"
		if grain > 0 {
			name = itoa(grain)
		}
		b.Run("grain="+name, func(b *testing.B) {
			m := models.MustNew(models.CilkFor, benchThreads, models.WithGrain(grain))
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Axpy(m, 2.0, x, y)
			}
		})
	}
}

// BenchmarkLoopDist contrasts the two ForDAC partitioners on the
// paper's flat data kernels at a distribution-stressing grain: eager
// decomposition pre-spawns every chunk (n/grain tasks per loop, each
// reaching an idle worker only through a steal), while lazy splitting
// forks work off only when another worker signals demand. The gap
// between the two is the adaptive-distribution win; cmd/benchgate
// gates it on the flat loops as the lazy-beats-eager invariants.
func BenchmarkLoopDist(b *testing.B) {
	const (
		vecN  = 1 << 18
		matN  = 384 // matvec dimension
		mulN  = 96  // matmul dimension
		grain = 64  // distribution stress: vecN/grain eager spawns
	)
	x := kernels.RandomVector(vecN, 11)
	y := kernels.RandomVector(vecN, 12)
	mva := kernels.RandomVector(matN*matN, 13)
	mvx := kernels.RandomVector(matN, 14)
	mvy := make([]float64, matN)
	mma := kernels.RandomVector(mulN*mulN, 15)
	mmb := kernels.RandomVector(mulN*mulN, 16)
	mmc := make([]float64, mulN*mulN)

	parts := []struct {
		name string
		p    worksteal.Partitioner
	}{
		{"eager", worksteal.Eager},
		{"lazy", worksteal.Lazy},
	}
	kernelsToRun := []struct {
		name string
		run  func(m models.Model)
	}{
		{"Axpy", func(m models.Model) { kernels.Axpy(m, 2.0, x, y) }},
		{"Sum", func(m models.Model) { kernels.Sum(m, 2.0, x) }},
		{"Matvec", func(m models.Model) { kernels.Matvec(m, mva, mvx, mvy, matN) }},
		{"Matmul", func(m models.Model) { kernels.Matmul(m, mma, mmb, mmc, mulN) }},
	}
	for _, k := range kernelsToRun {
		k := k
		for _, part := range parts {
			part := part
			b.Run(k.name+"/"+part.name, func(b *testing.B) {
				m := models.MustNew(models.CilkFor, benchThreads,
					models.WithGrain(grain), models.WithPartitioner(part.p))
				defer m.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run(m)
				}
			})
		}
	}
}

// BenchmarkAblationSchedule compares work-sharing schedules on a
// uniform workload (Axpy-like) and a triangular one (LUD-outer-like):
// static should win the uniform case, dynamic/guided the imbalanced
// one.
func BenchmarkAblationSchedule(b *testing.B) {
	const n = 100_000
	x := kernels.RandomVector(n, 3)
	out := make([]float64, n)
	schedules := []struct {
		name string
		s    forkjoin.Schedule
	}{
		{"static", forkjoin.Static},
		{"dynamic", forkjoin.Dynamic(256)},
		{"guided", forkjoin.Guided(64)},
	}
	for _, shape := range []string{"uniform", "triangular"} {
		shape := shape
		for _, sch := range schedules {
			sch := sch
			b.Run(shape+"/"+sch.name, func(b *testing.B) {
				team := forkjoin.NewTeam(benchThreads)
				defer team.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					team.Parallel(func(tc *forkjoin.Ctx) {
						tc.ForRangeNoWait(sch.s, 0, n, func(lo, hi int) {
							for j := lo; j < hi; j++ {
								work := 1
								if shape == "triangular" {
									// Work grows with the index, like the
									// trailing-submatrix updates in LUD.
									work = 1 + j/(n/16+1)
								}
								acc := 0.0
								for w := 0; w < work; w++ {
									acc += x[j]
								}
								out[j] = acc
							}
						})
					})
				}
			})
		}
	}
}

// BenchmarkAblationBarrier compares the sense-reversing barrier with
// the lock-based central barrier under a barrier-heavy workload
// (many tiny work-sharing loops, each ending in a barrier).
func BenchmarkAblationBarrier(b *testing.B) {
	const n = 10_000
	x := kernels.RandomVector(n, 4)
	y := make([]float64, n)
	for _, cfg := range []struct {
		name    string
		central bool
	}{
		{"sense-reversing", false},
		{"central", true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var opts []forkjoin.Option
			if cfg.central {
				opts = append(opts, forkjoin.WithCentralBarrier())
			}
			m, err := models.OverTeam(models.OMPFor, forkjoin.NewTeam(benchThreads, opts...))
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Ten dependent micro-loops -> ten barrier phases.
				for rep := 0; rep < 10; rep++ {
					models.Must(m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
						for j := lo; j < hi; j++ {
							y[j] = x[j] * 2
						}
					}))
				}
			}
		})
	}
}

// BenchmarkAblationCutoff reproduces the paper's observation about
// uncut recursion on thread-per-task models: the deeper the cut-off
// lets recursion spawn real threads, the worse std::async-style
// execution gets. (cutoff = n-2 spawns ~2 tasks; cutoff = 8 spawns
// hundreds.)
func BenchmarkAblationCutoff(b *testing.B) {
	const fibN = 22
	want := kernels.FibSeq(fibN)
	for _, cutoff := range []int{20, 16, 12, 8} {
		cutoff := cutoff
		b.Run("cutoff="+itoa(cutoff), func(b *testing.B) {
			m := models.MustNew(models.CPPAsync, benchThreads)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := kernels.FibTask(m, fibN, cutoff); got != want {
					b.Fatalf("fib = %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkAblationTaskPolicy compares deferred (breadth-first,
// Intel-style) against immediate (work-first) task execution in the
// fork-join runtime.
func BenchmarkAblationTaskPolicy(b *testing.B) {
	const fibN = 20
	want := kernels.FibSeq(fibN)
	for _, cfg := range []struct {
		name   string
		policy forkjoin.TaskPolicy
	}{
		{"deferred", forkjoin.TaskDeferred},
		{"immediate", forkjoin.TaskImmediate},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			m, err := models.OverTeam(models.OMPTask,
				forkjoin.NewTeam(benchThreads, forkjoin.WithTaskPolicy(cfg.policy)))
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := kernels.FibTask(m, fibN, 0); got != want {
					b.Fatalf("fib = %d, want %d", got, want)
				}
			}
		})
	}
}

// itoa avoids importing strconv for two call sites.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Extension workloads (related-work benchmarks) --------------------

// BenchmarkExtUTS counts an unbalanced tree (UTS, Olivier & Prins)
// under the pooled task models — the pure load-balancing stress from
// the paper's related work. Static partitioning cannot win here;
// work stealing is expected to shine.
func BenchmarkExtUTS(b *testing.B) {
	p := uts.Small(42)
	want := uts.CountSeq(p)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if uts.CountSeq(p) != want {
				b.Fatal("count mismatch")
			}
		}
	})
	for _, name := range []string{models.OMPTask, models.CilkSpawn} {
		name := name
		b.Run(name, func(b *testing.B) {
			m := models.MustNew(name, benchThreads)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if uts.Count(m, p, 4) != want {
					b.Fatal("count mismatch")
				}
			}
		})
	}
}

// BenchmarkExtSort merge-sorts under every task model — a DAC
// workload whose tasks carry real memory traffic, between fib (pure
// scheduling) and the flat loops (no task structure).
func BenchmarkExtSort(b *testing.B) {
	const n = 200_000
	orig := kernels.RandomVector(n, 5)
	data := make([]float64, n)
	b.Run("sequential", func(b *testing.B) {
		scratch := make([]float64, n)
		for i := 0; i < b.N; i++ {
			copy(data, orig)
			kernels.SortSeq(data, scratch)
		}
	})
	for _, name := range models.TaskNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			m := models.MustNew(name, benchThreads)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, orig)
				kernels.SortTask(m, data, 16384)
			}
			b.StopTimer()
			if !kernels.IsSorted(data) {
				b.Fatal("not sorted")
			}
		})
	}
}

// BenchmarkExtPathFinder runs the Rodinia PathFinder DP — one tiny
// dependent parallel loop per row, the hardest per-phase overhead
// stress in the suite. Every data model's final row must equal Seq's,
// column for column, so a one-iteration run doubles as a check of the
// DP step at a size the unit tests do not reach.
func BenchmarkExtPathFinder(b *testing.B) {
	g := pathfinder.Generate(100, 100_000, 3)
	want := pathfinder.Seq(g)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pathfinder.Seq(g)
		}
	})
	for _, name := range models.DataNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			m := models.MustNew(name, benchThreads)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := pathfinder.Parallel(m, g); !slices.Equal(got, want) {
					b.Fatal("final cost row differs from Seq")
				}
			}
		})
	}
}

// BenchmarkExtKmeans runs the Rodinia K-means clustering — a uniform
// compute-heavy assignment loop with a merged reduction per
// iteration.
func BenchmarkExtKmeans(b *testing.B) {
	ds := kmeans.Generate(20_000, 8, 8, 9)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kmeans.Seq(ds, 8, 5)
		}
	})
	for _, name := range models.DataNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			m := models.MustNew(name, benchThreads)
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kmeans.Parallel(m, ds, 8, 5)
			}
		})
	}
}
