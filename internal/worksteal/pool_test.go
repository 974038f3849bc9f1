package worksteal

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"threading/internal/deque"
)

var backends = []struct {
	name string
	kind deque.Kind
}{
	{"chase-lev", deque.KindChaseLev},
	{"locked", deque.KindLocked},
}

func TestRunSimple(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			p := NewPool(4, WithDequeKind(be.kind))
			defer p.Close()
			var ran atomic.Bool
			p.Run(func(c *Ctx) { ran.Store(true) })
			if !ran.Load() {
				t.Fatal("root task did not run")
			}
		})
	}
}

func TestSpawnSyncCounts(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			p := NewPool(4, WithDequeKind(be.kind))
			defer p.Close()
			var count atomic.Int64
			p.Run(func(c *Ctx) {
				for i := 0; i < 100; i++ {
					c.Spawn(func(cc *Ctx) { count.Add(1) })
				}
				c.Sync()
				if got := count.Load(); got != 100 {
					t.Errorf("after Sync: count = %d, want 100", got)
				}
			})
			if got := count.Load(); got != 100 {
				t.Fatalf("count = %d, want 100", got)
			}
		})
	}
}

func TestImplicitSyncAtReturn(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var inner atomic.Bool
	p.Run(func(c *Ctx) {
		c.Spawn(func(cc *Ctx) {
			cc.Spawn(func(ccc *Ctx) { inner.Store(true) })
			// No explicit Sync: the implicit sync at return must join
			// the grandchild before the child is reported done.
		})
	})
	if !inner.Load() {
		t.Fatal("grandchild not joined by implicit sync")
	}
}

// fibCtx is the canonical recursive spawn test: compute fib(n) with a
// spawn per branch and verify the result.
func fibCtx(c *Ctx, n int, out *uint64) {
	if n < 2 {
		*out = uint64(n)
		return
	}
	var a, b uint64
	c.Spawn(func(cc *Ctx) { fibCtx(cc, n-1, &a) })
	fibCtx(c, n-2, &b)
	c.Sync()
	*out = a + b
}

func fibSeq(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func TestFibRecursive(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				p := NewPool(workers, WithDequeKind(be.kind))
				var got uint64
				p.Run(func(c *Ctx) { fibCtx(c, 20, &got) })
				p.Close()
				if want := fibSeq(20); got != want {
					t.Fatalf("workers=%d: fib(20) = %d, want %d", workers, got, want)
				}
			}
		})
	}
}

func TestForDACCoversRange(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			p := NewPool(4, WithDequeKind(be.kind))
			defer p.Close()
			check := func(n16 uint16, grain8 uint8) bool {
				n := int(n16 % 5000)
				grain := int(grain8%64) + 1
				touched := make([]atomic.Int32, n)
				p.Run(func(c *Ctx) {
					c.ForDAC(0, n, grain, func(_ *Ctx, l, h int) {
						if h-l > grain {
							t.Errorf("chunk [%d,%d) exceeds grain %d", l, h, grain)
						}
						for i := l; i < h; i++ {
							touched[i].Add(1)
						}
					})
				})
				for i := range touched {
					if touched[i].Load() != 1 {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestForDACEmptyAndDefaults(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Run(func(c *Ctx) {
		ran := false
		c.ForDAC(5, 5, 0, func(_ *Ctx, l, h int) { ran = true })
		if ran {
			t.Error("body ran for empty range")
		}
		var n atomic.Int64
		c.ForDAC(0, 1000, 0, func(_ *Ctx, l, h int) { n.Add(int64(h - l)) }) // grain 0 -> default
		if n.Load() != 1000 {
			t.Errorf("default-grain ForDAC covered %d iterations, want 1000", n.Load())
		}
	})
}

func TestForEach(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 10000
	data := make([]int64, n)
	p.Run(func(c *Ctx) {
		c.ForEach(0, n, 16, func(_ *Ctx, i int) { atomic.AddInt64(&data[i], int64(i)) })
	})
	for i, v := range data {
		if v != int64(i) {
			t.Fatalf("data[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestDefaultGrain(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{0, 4, 1},
		{1, 4, 1},
		{32, 4, 1},
		{1 << 20, 4, 2048},    // capped
		{800, 4, 25},          // 800/(8*4)
		{100, 0, 13},          // p clamped to 1: ceil(100/8)
		{8_000_000, 36, 2048}, // paper-scale loop
	}
	for _, tc := range cases {
		if got := DefaultGrain(tc.n, tc.p); got != tc.want {
			t.Errorf("DefaultGrain(%d,%d) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestReducerSum(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 100000
	r := NewReducer(p, 0.0, func(a, b float64) float64 { return a + b })
	p.Run(func(c *Ctx) {
		c.ForDAC(0, n, 0, func(cc *Ctx, l, h int) {
			v := r.View(cc)
			for i := l; i < h; i++ {
				*v += float64(i)
			}
		})
	})
	want := float64(n) * float64(n-1) / 2
	if got := r.Value(); got != want {
		t.Fatalf("reducer sum = %g, want %g", got, want)
	}
}

func TestReducerUpdate(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	r := NewReducer(p, 1.0, func(a, b float64) float64 { return a * b })
	p.Run(func(c *Ctx) {
		c.ForEach(1, 11, 1, func(cc *Ctx, i int) { *r.View(cc) *= float64(i) })
	})
	if got, want := r.Value(), 3628800.0; got != want { // 10!
		t.Fatalf("product = %g, want %g", got, want)
	}
}

func TestPanicPropagates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-panic")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic value %q does not carry the original message", r)
		}
	}()
	p.Run(func(c *Ctx) {
		c.Spawn(func(cc *Ctx) { panic("boom") })
		c.Sync()
	})
}

func TestPoolSurvivesPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	func() {
		defer func() { recover() }()
		p.Run(func(c *Ctx) { panic("first") })
	}()
	var ok atomic.Bool
	p.Run(func(c *Ctx) { ok.Store(true) })
	if !ok.Load() {
		t.Fatal("pool unusable after a panicking run")
	}
}

func TestConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const runs = 8
	var total atomic.Int64
	done := make(chan struct{}, runs)
	for r := 0; r < runs; r++ {
		go func() {
			p.Run(func(c *Ctx) {
				c.ForEach(0, 1000, 10, func(_ *Ctx, i int) { total.Add(1) })
			})
			done <- struct{}{}
		}()
	}
	for r := 0; r < runs; r++ {
		<-done
	}
	if total.Load() != runs*1000 {
		t.Fatalf("total = %d, want %d", total.Load(), runs*1000)
	}
}

// TestPoolPendingWorkCountsQueuedTasks pins PendingWork to the tasks
// queued on the deques and not yet taken, the pool-side mirror of
// forkjoin's TestTeamPendingWorkCountsQueuedTasks. On a one-worker
// pool the root first holds the worker in a blocker child, so nothing
// is stolen, then spawns three children: PendingWork reads 3 before
// the implicit sync, and 2 in the first child to run, which releases
// the blocker. Once Run returns nothing is queued, on either deque
// kind.
func TestPoolPendingWorkCountsQueuedTasks(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			p := NewPool(1, WithDequeKind(be.kind))
			defer p.Close()
			var started, release atomic.Bool
			var before, during int64
			p.Run(func(c *Ctx) {
				c.Spawn(func(*Ctx) {
					started.Store(true)
					for !release.Load() {
						runtime.Gosched()
					}
				})
				for !started.Load() {
					runtime.Gosched()
				}
				for range 3 {
					c.Spawn(func(*Ctx) {
						if !release.Load() {
							during = p.PendingWork()
							release.Store(true)
						}
					})
				}
				before = p.PendingWork()
			})
			after := p.core.Pending()
			if before != 3 || during != 2 || after != 0 {
				t.Fatalf("PendingWork = %d before the sync, %d in the first child, Pending = %d after Run; want 3, 2, 0",
					before, during, after)
			}
		})
	}
}

func TestStatsRecorded(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	run := func() {
		p.Run(func(c *Ctx) {
			for i := 0; i < 50; i++ {
				c.Spawn(func(cc *Ctx) {})
			}
			c.Sync()
		})
	}
	// Two runs, each read as the delta of two snapshots: the counters
	// accumulate, and the second run's delta counts only its own work.
	for i := 0; i < 2; i++ {
		before := p.Stats()
		run()
		s := p.Stats().Delta(before)
		if s.Spawns != 50 {
			t.Errorf("run %d: Spawns = %d, want 50", i, s.Spawns)
		}
		if s.TasksExecuted != 51 { // 50 children + root
			t.Errorf("run %d: TasksExecuted = %d, want 51", i, s.TasksExecuted)
		}
	}
	if s := p.Stats(); s.Spawns != 100 {
		t.Errorf("cumulative Spawns = %d, want 100", s.Spawns)
	}
}

func TestWorkerIDInRange(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	p.Run(func(c *Ctx) {
		c.ForEach(0, 1000, 1, func(_ *Ctx, i int) {})
		// The root may execute on a help-first submitter slot, whose
		// ids follow the dedicated workers'.
		if id := c.WorkerID(); id < 0 || id >= workers+MaxHelpers {
			t.Errorf("WorkerID = %d out of range", id)
		}
		if c.Pool() != p {
			t.Error("Ctx.Pool mismatch")
		}
	})
}

func TestRunOnClosedPoolPanics(t *testing.T) {
	p := NewPool(1)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run on closed pool did not panic")
		}
	}()
	p.Run(func(c *Ctx) {})
}

func TestNewPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}
