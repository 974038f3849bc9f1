package models

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"

	"threading/internal/deque"
	"threading/internal/forkjoin"
	"threading/internal/worksteal"
)

// sumTo folds 0+1+...+(n-1) under m, the reduction every test here
// checks against the closed form.
func sumTo(t *testing.T, m Model, n int) float64 {
	t.Helper()
	got, err := m.ParallelReduceCtx(context.Background(), n, 0,
		func(lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += float64(i)
			}
			return acc
		},
		func(a, b float64) float64 { return a + b })
	if err != nil {
		t.Fatalf("ParallelReduceCtx: %v", err)
	}
	return got
}

func TestNamesStable(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("Names() has %d entries, want 6: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("not_a_model", 2); err == nil {
		t.Fatal("New accepted an unknown model name")
	}
	if _, err := New(OMPFor, 0); err == nil {
		t.Fatal("New accepted 0 threads")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad name")
		}
	}()
	MustNew("bogus", 1)
}

func TestChunkFor(t *testing.T) {
	check := func(n16 uint16, k8 uint8) bool {
		n := int(n16 % 10000)
		k := int(k8%16) + 1
		covered := 0
		prevHi := 0
		for i := 0; i < k; i++ {
			lo, hi := chunkFor(n, k, i)
			if lo != prevHi {
				return false // chunks must be contiguous
			}
			if hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWithPartitioner builds every model with the lazy partitioner —
// models it does not apply to must ignore it — and checks a reduction
// stays correct under it.
func TestWithPartitioner(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 3, WithPartitioner(worksteal.Lazy))
			defer m.Close()
			const n = 10000
			if got, want := sumTo(t, m, n), float64(n)*float64(n-1)/2; got != want {
				t.Fatalf("lazy reduce = %g, want %g", got, want)
			}
		})
	}
}

func forEachModel(t *testing.T, threads int, fn func(t *testing.T, m Model)) {
	t.Helper()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, threads)
			defer m.Close()
			fn(t, m)
		})
	}
}

func TestModelIdentity(t *testing.T) {
	forEachModel(t, 3, func(t *testing.T, m Model) {
		if m.Threads() != 3 {
			t.Errorf("Threads = %d, want 3", m.Threads())
		}
		found := false
		for _, n := range Names() {
			if n == m.Name() {
				found = true
			}
		}
		if !found {
			t.Errorf("Name %q not in registry", m.Name())
		}
	})
}

func TestParallelForCoverage(t *testing.T) {
	const n = 20000
	forEachModel(t, 4, func(t *testing.T, m Model) {
		hits := make([]atomic.Int32, n)
		Must(m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		}))
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("iteration %d executed %d times", i, hits[i].Load())
			}
		}
	})
}

func TestParallelForSmallN(t *testing.T) {
	// Fewer iterations than threads: every model must still cover
	// exactly once and not call body with empty ranges.
	forEachModel(t, 8, func(t *testing.T, m Model) {
		for _, n := range []int{0, 1, 3, 7} {
			var total atomic.Int64
			Must(m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("n=%d: empty chunk [%d,%d)", n, lo, hi)
				}
				total.Add(int64(hi - lo))
			}))
			if total.Load() != int64(n) {
				t.Fatalf("n=%d: covered %d iterations", n, total.Load())
			}
		}
	})
}

func TestParallelForRepeated(t *testing.T) {
	// Models must be reusable across many invocations (the harness
	// times repeated calls).
	const n = 1000
	forEachModel(t, 2, func(t *testing.T, m Model) {
		for rep := 0; rep < 10; rep++ {
			var total atomic.Int64
			Must(m.ParallelForCtx(context.Background(), n, func(lo, hi int) { total.Add(int64(hi - lo)) }))
			if total.Load() != n {
				t.Fatalf("rep %d: covered %d", rep, total.Load())
			}
		}
	})
}

func TestParallelReduce(t *testing.T) {
	const n = 50000
	want := float64(n) * float64(n-1) / 2
	forEachModel(t, 4, func(t *testing.T, m Model) {
		if got := sumTo(t, m, n); got != want {
			t.Fatalf("sum = %g, want %g", got, want)
		}
	})
}

func TestParallelReduceEmpty(t *testing.T) {
	forEachModel(t, 4, func(t *testing.T, m Model) {
		// With no iterations, only identities are combined; how many
		// differs per model, so only completion is asserted.
		if _, err := m.ParallelReduceCtx(context.Background(), 0, 5,
			func(lo, hi int, acc float64) float64 { return acc + 1 },
			func(a, b float64) float64 { return a + b }); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTaskCapability(t *testing.T) {
	wantTasks := map[string]bool{
		OMPFor: false, OMPTask: true, CilkFor: false,
		CilkSpawn: true, CPPThread: true, CPPAsync: true,
	}
	forEachModel(t, 2, func(t *testing.T, m Model) {
		err := m.TaskRunCtx(context.Background(), func(TaskScope) {})
		if wantTasks[m.Name()] {
			if err != nil {
				t.Fatalf("TaskRunCtx on a task model = %v", err)
			}
			return
		}
		if !errors.Is(err, ErrTasksUnsupported) {
			t.Fatalf("TaskRunCtx on a loop-only model = %v, want ErrTasksUnsupported", err)
		}
		defer func() {
			if recover() == nil {
				t.Error("Must let ErrTasksUnsupported through")
			}
		}()
		Must(err)
	})
}

// scopeFib computes fib recursively over a TaskScope with a cut-off,
// the pattern all task models share in the harness.
func scopeFib(s TaskScope, n int, out *uint64) {
	if n < 2 {
		*out = uint64(n)
		return
	}
	if n <= 12 { // sequential cut-off
		*out = fibSeq(n)
		return
	}
	var a, b uint64
	s.Spawn(func(cs TaskScope) { scopeFib(cs, n-1, &a) })
	scopeFib(s, n-2, &b)
	s.Sync()
	*out = a + b
}

func fibSeq(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func TestTaskRunFib(t *testing.T) {
	want := fibSeq(22)
	for _, name := range TaskNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 4)
			defer m.Close()
			var got uint64
			Must(m.TaskRunCtx(context.Background(), func(s TaskScope) { scopeFib(s, 22, &got) }))
			if got != want {
				t.Fatalf("fib(22) = %d, want %d", got, want)
			}
		})
	}
}

func TestTaskRunNestedSpawns(t *testing.T) {
	for _, name := range TaskNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 3)
			defer m.Close()
			var leaves atomic.Int64
			Must(m.TaskRunCtx(context.Background(), func(s TaskScope) {
				for i := 0; i < 8; i++ {
					s.Spawn(func(cs TaskScope) {
						for j := 0; j < 8; j++ {
							cs.Spawn(func(TaskScope) { leaves.Add(1) })
						}
						cs.Sync()
					})
				}
				s.Sync()
			}))
			if leaves.Load() != 64 {
				t.Fatalf("leaves = %d, want 64", leaves.Load())
			}
		})
	}
}

func TestSchedulerStatsPresence(t *testing.T) {
	hasStats := map[string]bool{
		OMPFor: true, OMPTask: true, CilkFor: true,
		CilkSpawn: true, CPPThread: false, CPPAsync: false,
	}
	forEachModel(t, 2, func(t *testing.T, m Model) {
		if _, ok := m.SchedulerStats(); ok != hasStats[m.Name()] {
			t.Fatalf("SchedulerStats presence = %v, want %v", ok, hasStats[m.Name()])
		}
	})
}

func TestDataAndTaskNameSets(t *testing.T) {
	if len(DataNames()) != 6 {
		t.Errorf("DataNames = %v", DataNames())
	}
	for _, n := range TaskNames() {
		m := MustNew(n, 1)
		if err := m.TaskRunCtx(context.Background(), func(TaskScope) {}); err != nil {
			t.Errorf("TaskNames contains %s, which cannot run a task tree: %v", n, err)
		}
		m.Close()
	}
}

// TestRuntimeInjection covers the two constructors the ablation
// benchmarks use: a model over a caller-configured team or pool must
// behave like the one New builds, and a name of the wrong family is
// an error.
func TestRuntimeInjection(t *testing.T) {
	overTeam := func(name string, opts ...forkjoin.Option) Model {
		m, err := OverTeam(name, forkjoin.NewTeam(2, opts...))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	overPool := func(name string, grain int, opts ...worksteal.Option) Model {
		m, err := OverPool(name, worksteal.NewPool(2, opts...), grain)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	variants := map[string]Model{
		OMPFor:    overTeam(OMPFor, forkjoin.WithCentralBarrier()),
		OMPTask:   overTeam(OMPTask, forkjoin.WithLockFreeTasks()),
		CilkSpawn: overPool(CilkSpawn, 0, worksteal.WithDequeKind(deque.KindLocked)),
		CilkFor:   overPool(CilkFor, 64),
	}
	for name, m := range variants {
		if m.Name() != name || m.Threads() != 2 {
			t.Errorf("%s variant reports %s/%d threads", name, m.Name(), m.Threads())
		}
		var total atomic.Int64
		Must(m.ParallelForCtx(context.Background(), 5000, func(lo, hi int) { total.Add(int64(hi - lo)) }))
		if total.Load() != 5000 {
			t.Errorf("%s variant covered %d", name, total.Load())
		}
		m.Close()
	}

	team := forkjoin.NewTeam(1)
	defer team.Close()
	if _, err := OverTeam(CilkFor, team); err == nil {
		t.Error("OverTeam accepted a work-stealing model name")
	}
	pool := worksteal.NewPool(1)
	defer pool.Close()
	if _, err := OverPool(OMPTask, pool, 0); err == nil {
		t.Error("OverPool accepted a fork-join model name")
	}
}

// TestSchedulerStatsDelta pins the bracket every stats consumer uses
// now that counters are cumulative-only: a loop's activity shows up in
// Snapshot.Delta, and an idle bracket is all zero.
func TestSchedulerStatsDelta(t *testing.T) {
	forEachModel(t, 2, func(t *testing.T, m Model) {
		base, ok := m.SchedulerStats()
		if !ok {
			return
		}
		Must(m.ParallelForCtx(context.Background(), 100, func(lo, hi int) {}))
		after, _ := m.SchedulerStats()
		if d := after.Delta(base); d.LoopChunks+d.TasksExecuted == 0 {
			t.Fatalf("a 100-iteration loop left no trace in the delta: %+v", d)
		}
		idle, _ := m.SchedulerStats()
		if d := idle.Delta(after); d.LoopChunks != 0 || d.Spawns != 0 || d.TasksExecuted != 0 {
			t.Fatalf("idle bracket is not zero: %+v", d)
		}
	})
}
