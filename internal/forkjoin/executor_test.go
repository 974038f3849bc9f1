package forkjoin

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"threading/internal/sched"
)

// within runs fn and fails the test if it has not returned after d —
// the form a deadlock on the team takes. The tests close their team
// only once within has returned: Close would wait on a stuck member.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not return within %v: the team deadlocked", d)
	}
}

func sumFold(l, h int, acc float64) float64 {
	for i := l; i < h; i++ {
		acc += float64(i)
	}
	return acc
}

func add(a, b float64) float64 { return a + b }

// A loop body that reduces on its own team finds the team busy with
// the enclosing region, so the inner loop runs serialized on the
// member that met it instead of waiting for the team.
func TestExecutorNestedLoopOnOwnTeam(t *testing.T) {
	tm := NewTeam(2)
	const outer, n = 4, 1000
	var sums [outer]float64
	var errs [outer]error
	within(t, 5*time.Second, func() {
		err := tm.ParallelForCtx(context.Background(), 0, outer, 1, func(l, h int) {
			for i := l; i < h; i++ {
				sums[i], errs[i] = tm.ParallelReduceCtx(context.Background(), 0, n, 16, 0, sumFold, add)
			}
		})
		if err != nil {
			t.Errorf("outer loop: %v", err)
		}
	})
	for i := range sums {
		if errs[i] != nil || sums[i] != n*(n-1)/2 {
			t.Fatalf("inner reduce %d = %v, %v; want %d, nil", i, sums[i], errs[i], n*(n-1)/2)
		}
	}
	tm.Close()
}

// A submitted function holds no member, so a loop it runs on the same
// team takes the team.
func TestExecutorSubmitRunsLoopOnOwnTeam(t *testing.T) {
	tm := NewTeam(2)
	const n = 1000
	var sum atomic.Int64
	within(t, 5*time.Second, func() {
		err := tm.SubmitCtx(context.Background(), func() {
			err := tm.ParallelForCtx(context.Background(), 0, n, 8, func(l, h int) {
				for i := l; i < h; i++ {
					sum.Add(int64(i))
				}
			})
			if err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Errorf("SubmitCtx: %v", err)
		}
		if err := tm.Quiesce(); err != nil {
			t.Errorf("Quiesce: %v", err)
		}
	})
	if got := sum.Load(); got != n*(n-1)/2 {
		t.Fatalf("sum = %d, want %d", got, n*(n-1)/2)
	}
	tm.Close()
}

// While a region holds the team, executor loops from other goroutines
// run serialized on their callers with the team region's semantics:
// every index once in grain-sized chunks, the deadline checked at
// entry, a panic surfaced as a *sched.PanicError. The team is reusable
// afterwards and Close leaves no goroutine behind.
func TestExecutorSerializedRegion(t *testing.T) {
	base := runtime.NumGoroutine()
	tm := NewTeam(2)
	held, release := make(chan struct{}), make(chan struct{})
	holder := make(chan error)
	go func() {
		holder <- tm.ParallelCtx(context.Background(), func(tc *Ctx) {
			tc.Master(func() {
				close(held)
				<-release
			})
		})
	}()
	<-held

	const n, grain = 1000, 7
	within(t, 5*time.Second, func() {
		visits := make([]atomic.Int32, n)
		before := tm.Stats()
		err := tm.ParallelForCtx(context.Background(), 0, n, grain, func(l, h int) {
			for i := l; i < h; i++ {
				visits[i].Add(1)
			}
		})
		if err != nil {
			t.Errorf("serialized loop: %v", err)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Errorf("index %d visited %d times", i, v)
				break
			}
		}
		if got, want := tm.Stats().Delta(before).LoopChunks, int64((n+grain-1)/grain); got != want {
			t.Errorf("serialized loop counted %d chunks, want %d", got, want)
		}

		sum, err := tm.ParallelReduceCtx(context.Background(), 0, n, grain, 0, sumFold, add)
		if err != nil || sum != n*(n-1)/2 {
			t.Errorf("serialized reduce = %v, %v; want %d, nil", sum, err, n*(n-1)/2)
		}

		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		var ran atomic.Bool
		err = tm.ParallelForCtx(ctx, 0, n, grain, func(l, h int) { ran.Store(true) })
		if !errors.Is(err, context.DeadlineExceeded) || ran.Load() {
			t.Errorf("expired deadline: err = %v, body ran = %v; want DeadlineExceeded, false", err, ran.Load())
		}

		err = tm.ParallelForCtx(context.Background(), 0, n, grain, func(l, h int) { panic("serial-boom") })
		var pe *sched.PanicError
		if !errors.As(err, &pe) || pe.Value != "serial-boom" {
			t.Errorf("panicking body: err = %v, want the body's *sched.PanicError", err)
		}
	})

	close(release)
	if err := <-holder; err != nil {
		t.Fatalf("holding region: %v", err)
	}
	var members [2]atomic.Bool
	err := tm.ParallelForCtx(context.Background(), 0, n, 0, func(l, h int) {
		members[min(l*2/n, 1)].Store(true)
	})
	if err != nil || !members[0].Load() || !members[1].Load() {
		t.Fatalf("reuse: err = %v, halves run = %v/%v; want a team region over both halves",
			err, members[0].Load(), members[1].Load())
	}
	tm.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after Close, %d before NewTeam", g, base)
	}
}

// PendingWork counts queued, not live, tasks: on a team of one, three
// deferred tasks stay queued until the Taskwait runs them, and while
// the first of them runs two are queued though three are live.
func TestTeamPendingWorkCountsQueuedTasks(t *testing.T) {
	tm := NewTeam(1)
	defer tm.Close()
	var before, during, after int64
	tm.Parallel(func(tc *Ctx) {
		for range 3 {
			tc.Task(func(*Ctx) {
				if during == 0 {
					during = tm.PendingWork()
				}
			})
		}
		before = tm.PendingWork()
		tc.Taskwait()
		after = tm.PendingWork()
	})
	if before != 3 || during != 2 || after != 0 {
		t.Fatalf("PendingWork = %d before Taskwait, %d in the first task, %d after; want 3, 2, 0",
			before, during, after)
	}
}
