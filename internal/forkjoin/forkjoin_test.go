package forkjoin

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelRunsAllMembers(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		tm := NewTeam(n)
		seen := make([]atomic.Int32, n)
		tm.Parallel(func(tc *Ctx) {
			seen[tc.ID()].Add(1)
			if tc.Team() != tm {
				t.Error("Ctx.Team mismatch")
			}
		})
		tm.Close()
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("n=%d: member %d ran %d times, want 1", n, i, seen[i].Load())
			}
		}
	}
}

func TestTeamReuse(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	var total atomic.Int64
	for r := 0; r < 20; r++ {
		tm.Parallel(func(tc *Ctx) { total.Add(1) })
	}
	if total.Load() != 60 {
		t.Fatalf("total = %d, want 60", total.Load())
	}
}

func TestForStaticBlockCoverage(t *testing.T) {
	check := func(n16 uint16, members8 uint8) bool {
		n := int(n16 % 3000)
		members := int(members8%8) + 1
		covered := make([]int, n)
		for id := 0; id < members; id++ {
			forStatic(id, members, 0, n, 0, func(l, h int) {
				if l >= h {
					t.Errorf("empty chunk [%d,%d)", l, h)
				}
				for i := l; i < h; i++ {
					covered[i]++
				}
			})
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForStaticChunkedCoverage(t *testing.T) {
	check := func(n16 uint16, members8, chunk8 uint8) bool {
		n := int(n16 % 3000)
		members := int(members8%8) + 1
		chunk := int(chunk8%32) + 1
		covered := make([]int, n)
		for id := 0; id < members; id++ {
			forStatic(id, members, 0, n, chunk, func(l, h int) {
				for i := l; i < h; i++ {
					covered[i]++
				}
			})
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForSchedulesCoverEveryIteration(t *testing.T) {
	schedules := map[string]Schedule{
		"static":         Static,
		"static-chunked": {Kind: ScheduleStatic, Chunk: 7},
		"dynamic":        Dynamic(13),
		"dynamic-1":      Dynamic(0), // default chunk
		"guided":         Guided(4),
	}
	for name, s := range schedules {
		t.Run(name, func(t *testing.T) {
			tm := NewTeam(4)
			defer tm.Close()
			const n = 50000
			hits := make([]atomic.Int32, n)
			tm.Parallel(func(tc *Ctx) {
				tc.For(s, 0, n, func(i int) { hits[i].Add(1) })
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("iteration %d executed %d times, want 1", i, hits[i].Load())
				}
			}
		})
	}
}

func TestTwoLoopsSameRegion(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	const n = 10000
	a := make([]int64, n)
	b := make([]int64, n)
	tm.Parallel(func(tc *Ctx) {
		tc.ForRange(Dynamic(64), 0, n, func(l, h int) {
			for i := l; i < h; i++ {
				atomic.AddInt64(&a[i], 1)
			}
		})
		// Second loop depends on first being complete (implicit barrier).
		tc.ForRange(Dynamic(64), 0, n, func(l, h int) {
			for i := l; i < h; i++ {
				atomic.AddInt64(&b[i], atomic.LoadInt64(&a[i]))
			}
		})
	})
	for i := 0; i < n; i++ {
		if a[i] != 1 || b[i] != 1 {
			t.Fatalf("i=%d: a=%d b=%d, want 1 1", i, a[i], b[i])
		}
	}
}

func TestForRangeEmpty(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	var calls atomic.Int64
	tm.Parallel(func(tc *Ctx) {
		tc.ForRange(Static, 10, 10, func(l, h int) { calls.Add(1) })
		tc.ForRange(Dynamic(4), 5, 5, func(l, h int) { calls.Add(1) })
		tc.ForRange(Guided(2), 3, 3, func(l, h int) { calls.Add(1) })
	})
	if calls.Load() != 0 {
		t.Fatalf("body ran %d times for empty loops", calls.Load())
	}
}

func TestFewerIterationsThanMembers(t *testing.T) {
	tm := NewTeam(8)
	defer tm.Close()
	hits := make([]atomic.Int32, 3)
	tm.Parallel(func(tc *Ctx) {
		tc.For(Static, 0, 3, func(i int) { hits[i].Add(1) })
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestReduceFloat64(t *testing.T) {
	for _, s := range []Schedule{Static, Dynamic(128), Guided(16)} {
		tm := NewTeam(4)
		const n = 100000
		var fromEveryMember [4]float64
		tm.Parallel(func(tc *Ctx) {
			got := tc.ReduceFloat64(s, 0, n, 0,
				func(l, h int, acc float64) float64 {
					for i := l; i < h; i++ {
						acc += float64(i)
					}
					return acc
				},
				func(a, b float64) float64 { return a + b })
			fromEveryMember[tc.ID()] = got
		})
		tm.Close()
		want := float64(n) * float64(n-1) / 2
		for id, got := range fromEveryMember {
			if got != want {
				t.Fatalf("schedule %v member %d: sum = %g, want %g", s, id, got, want)
			}
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var before, after atomic.Int64
	tm.Parallel(func(tc *Ctx) {
		before.Add(1)
		tc.Barrier()
		if before.Load() != 4 {
			t.Error("barrier released before all members arrived")
		}
		after.Add(1)
	})
	if after.Load() != 4 {
		t.Fatalf("after = %d, want 4", after.Load())
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	counter := 0
	tm.Parallel(func(tc *Ctx) {
		for i := 0; i < 1000; i++ {
			tc.Critical(func() { counter++ })
		}
	})
	if counter != 4000 {
		t.Fatalf("counter = %d, want 4000 (lost updates)", counter)
	}
}

func TestMasterOnlyMemberZero(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var who atomic.Int64
	who.Store(-1)
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			if !who.CompareAndSwap(-1, int64(tc.ID())) {
				t.Error("master ran twice")
			}
		})
	})
	if who.Load() != 0 {
		t.Fatalf("master ran on member %d, want 0", who.Load())
	}
}

func TestSingleRunsOnce(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var runs atomic.Int64
	var after atomic.Int64
	tm.Parallel(func(tc *Ctx) {
		tc.Single(func() { runs.Add(1) })
		// Implicit barrier: the first single's body must be complete
		// here. (A fast member may already be inside the second
		// single, so the count is 1 or 2, never 0.)
		if runs.Load() < 1 {
			t.Error("single not complete after its barrier")
		}
		after.Add(1)
		tc.Single(func() { runs.Add(1) }) // a second single is a new instance
	})
	if runs.Load() != 2 {
		t.Fatalf("singles ran %d times total, want 2", runs.Load())
	}
	if after.Load() != 4 {
		t.Fatalf("after = %d, want 4", after.Load())
	}
}

func TestTasksAllExecute(t *testing.T) {
	for name, opt := range map[string][]Option{
		"default": nil, "lock-free": {WithLockFreeTasks()}, "immediate": {WithTaskPolicy(TaskImmediate)},
	} {
		tm := NewTeam(4, opt...)
		var count atomic.Int64
		tm.Parallel(func(tc *Ctx) {
			tc.Master(func() {
				for i := 0; i < 500; i++ {
					tc.Task(func(*Ctx) { count.Add(1) })
				}
			})
		})
		tm.Close()
		if count.Load() != 500 {
			t.Fatalf("%s: %d tasks ran, want 500", name, count.Load())
		}
	}
}

func TestTaskwaitJoinsChildren(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			var done atomic.Int64
			for i := 0; i < 100; i++ {
				tc.Task(func(*Ctx) { done.Add(1) })
			}
			tc.Taskwait()
			if got := done.Load(); got != 100 {
				t.Errorf("after Taskwait: %d children done, want 100", got)
			}
		})
	})
}

func TestNestedTasks(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var leaves atomic.Int64
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			for i := 0; i < 10; i++ {
				tc.Task(func(c1 *Ctx) {
					for j := 0; j < 10; j++ {
						c1.Task(func(*Ctx) { leaves.Add(1) })
					}
					c1.Taskwait()
				})
			}
			tc.Taskwait()
			if got := leaves.Load(); got != 100 {
				t.Errorf("after Taskwait: %d leaves, want 100", got)
			}
		})
	})
	if leaves.Load() != 100 {
		t.Fatalf("leaves = %d, want 100", leaves.Load())
	}
}

// taskFib computes fib(n) with omp-style tasks, checking the
// taskwait-based join used by the paper's omp task Fibonacci.
func taskFib(tc *Ctx, n int, out *uint64) {
	if n < 2 {
		*out = uint64(n)
		return
	}
	var a, b uint64
	tc.Task(func(c *Ctx) { taskFib(c, n-1, &a) })
	taskFib(tc, n-2, &b)
	tc.Taskwait()
	*out = a + b
}

func TestTaskFib(t *testing.T) {
	want := uint64(6765) // fib(20)
	for name, opts := range map[string][]Option{"default": nil, "lock-free": {WithLockFreeTasks()}} {
		tm := NewTeam(4, opts...)
		var got uint64
		tm.Parallel(func(tc *Ctx) {
			tc.Master(func() { taskFib(tc, 20, &got) })
		})
		tm.Close()
		if got != want {
			t.Fatalf("%s: fib(20) = %d, want %d", name, got, want)
		}
	}
}

func TestRegionEndDrainsTasks(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var done atomic.Int64
	tm.Parallel(func(tc *Ctx) {
		// No taskwait: the implicit region-end drain must run these.
		for i := 0; i < 50; i++ {
			tc.Task(func(*Ctx) { done.Add(1) })
		}
	})
	if done.Load() != 200 {
		t.Fatalf("done = %d, want 200", done.Load())
	}
}

func TestPanicInRegionPropagates(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Parallel did not re-panic")
		}
		if !strings.Contains(r.(string), "kaboom") {
			t.Fatalf("panic %q lost the original message", r)
		}
	}()
	tm.Parallel(func(tc *Ctx) {
		if tc.ID() == 1 {
			panic("kaboom")
		}
	})
}

func TestTeamSurvivesPanic(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	func() {
		defer func() { recover() }()
		tm.Parallel(func(tc *Ctx) { panic("x") })
	}()
	var ok atomic.Bool
	tm.Parallel(func(tc *Ctx) { ok.Store(true) })
	if !ok.Load() {
		t.Fatal("team unusable after panic")
	}
}

func TestCentralBarrierOption(t *testing.T) {
	tm := NewTeam(4, WithCentralBarrier())
	defer tm.Close()
	var n atomic.Int64
	tm.Parallel(func(tc *Ctx) {
		n.Add(1)
		tc.Barrier()
		if n.Load() != 4 {
			t.Error("central barrier released early")
		}
	})
}

func TestScheduleString(t *testing.T) {
	if ScheduleStatic.String() != "static" || ScheduleDynamic.String() != "dynamic" ||
		ScheduleGuided.String() != "guided" || ScheduleKind(9).String() != "unknown" {
		t.Error("ScheduleKind.String values wrong")
	}
}

func TestStatsCount(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	before := tm.Stats()
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			for i := 0; i < 10; i++ {
				tc.Task(func(*Ctx) {})
			}
			tc.Taskwait()
		})
	})
	s := tm.Stats().Delta(before)
	if s.Spawns != 10 || s.TasksExecuted != 10 {
		t.Fatalf("stats = %+v, want 10 spawns and 10 executions", s)
	}
}

func TestNewTeamValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0)
}

func TestSize(t *testing.T) {
	tm := NewTeam(5)
	defer tm.Close()
	if tm.Size() != 5 {
		t.Fatalf("Size = %d, want 5", tm.Size())
	}
}

func TestSectionsEachRunsOnce(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	var counts [5]atomic.Int32
	var after atomic.Int32
	tm.Parallel(func(tc *Ctx) {
		tc.Sections(
			func() { counts[0].Add(1) },
			func() { counts[1].Add(1) },
			func() { counts[2].Add(1) },
			func() { counts[3].Add(1) },
			func() { counts[4].Add(1) },
		)
		// Implicit barrier: all sections complete before any member
		// proceeds.
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Errorf("section %d ran %d times at barrier exit", i, counts[i].Load())
			}
		}
		after.Add(1)
	})
	if after.Load() != 3 {
		t.Fatalf("after = %d", after.Load())
	}
}

func TestSectionsMoreSectionsThanMembers(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	var n atomic.Int32
	fns := make([]func(), 20)
	for i := range fns {
		fns[i] = func() { n.Add(1) }
	}
	tm.Parallel(func(tc *Ctx) { tc.Sections(fns...) })
	if n.Load() != 20 {
		t.Fatalf("ran %d sections, want 20", n.Load())
	}
}

func TestNestedParallelRejected(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Parallel did not panic")
		}
	}()
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			tm.Parallel(func(*Ctx) {})
		})
	})
}
