package forkjoin

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threading/internal/sched"
)

// The member that reaches the region end first must still take tasks
// spawned after it got there. Here the two tasks can only finish
// together, so if member 1 sleeps through them the region never ends.
func TestRegionEndRunsLateSpawnedTasks(t *testing.T) {
	tm := NewTeam(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm.Parallel(func(tc *Ctx) {
			tc.Master(func() {
				time.Sleep(20 * time.Millisecond)
				var wg sync.WaitGroup
				wg.Add(2)
				for i := 0; i < 2; i++ {
					tc.Task(func(*Ctx) {
						wg.Done()
						wg.Wait()
					})
				}
			})
		})
	}()
	select {
	case <-done:
		tm.Close()
	case <-time.After(2 * time.Second):
		// Close would wait for the member stuck in the region forever.
		t.Fatal("region did not finish: member 1 never ran a task spawned after it reached the region end")
	}
}

// TestRegionEndGateStress drives the region-end gate through thousands
// of regions on teams of 2, 3 and 4: tasks spawned by random members at
// random points (some only once another member has parked at the
// gate), nested Taskwaits and TaskDepend chains, and regions canceled
// or panicking while members are parked. Every task runs exactly once
// in a clean region and at most once in a failed one, the team stays
// reusable, and Close leaves no goroutine behind.
func TestRegionEndGateStress(t *testing.T) {
	regions := 2000
	if testing.Short() {
		regions = 200
	}
	base := runtime.NumGoroutine()
	for _, n := range []int{2, 3, 4} {
		tm := NewTeam(n)
		for i := 0; i < regions; i++ {
			var s stressRegion
			var err error
			switch i % 50 {
			case 7:
				err = s.canceled(tm)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("n=%d region %d: err = %v, want context.Canceled", n, i, err)
				}
			case 17:
				err = s.panicking(tm)
				var pe *sched.PanicError
				if !errors.As(err, &pe) || pe.Value != "gate-boom" {
					t.Fatalf("n=%d region %d: err = %v, want the task's panic", n, i, err)
				}
			default:
				if err = s.clean(tm, i); err != nil {
					t.Fatalf("n=%d region %d: %v", n, i, err)
				}
			}
			for id := int32(0); id < s.next.Load(); id++ {
				got := s.hits[id].Load()
				if got > 1 || (err == nil && got != 1) {
					t.Fatalf("n=%d region %d: task %d ran %d times", n, i, id, got)
				}
			}
			if bad := s.disorder.Load(); bad != 0 {
				t.Fatalf("n=%d region %d: %d dependence-chain tasks ran out of order", n, i, bad)
			}
		}
		if tm.Stats().Parks == 0 {
			t.Fatalf("n=%d: no member parked at the gate in %d regions", n, regions)
		}
		tm.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after Close, %d before NewTeam", g, base)
	}
}

// stressRegion is the bookkeeping of one region of the stress test:
// each spawned task takes the next id and marks its slot when it runs.
type stressRegion struct {
	hits     [512]atomic.Int32
	next     atomic.Int32
	disorder atomic.Int32
}

// task spawns body as an explicit task that records its run.
func (s *stressRegion) task(tc *Ctx, body func(*Ctx)) {
	id := s.next.Add(1) - 1
	tc.Task(func(c *Ctx) {
		s.hits[id].Add(1)
		body(c)
	})
}

// chain spawns k tasks that all write one object, so their dependences
// order them in creation order; each checks its position on arrival.
func (s *stressRegion) chain(tc *Ctx, k int) {
	var obj int
	var pos atomic.Int32
	for j := int32(0); j < int32(k); j++ {
		id := s.next.Add(1) - 1
		tc.TaskDepend(Deps{Out: []any{&obj}}, func(*Ctx) {
			s.hits[id].Add(1)
			if !pos.CompareAndSwap(j, j+1) {
				s.disorder.Add(1)
			}
		})
	}
}

// clean runs a region in which each member, from its own seeded
// generator, takes up to three steps — spin, spawn a task with nested
// children joined by an inner Taskwait, spawn a dependence chain, or
// Taskwait — and in a third of the regions one member spawns only
// after another has parked at the gate.
func (s *stressRegion) clean(tm *Team, i int) error {
	late := -1
	if i%3 == 0 {
		late = i % tm.Size()
	}
	return tm.ParallelCtx(context.Background(), func(tc *Ctx) {
		rng := sched.NewRand(uint64(i*8 + tc.ID() + 1))
		if tc.ID() == late {
			awaitSleepers(tm, 1)
		}
		for step := rng.Intn(4); step > 0; step-- {
			switch rng.Intn(4) {
			case 0:
				for spin := rng.Intn(200); spin > 0; spin-- {
					runtime.Gosched()
				}
			case 1:
				children := rng.Intn(4)
				s.task(tc, func(c *Ctx) {
					for k := 0; k < children; k++ {
						s.task(c, func(*Ctx) {})
					}
					c.Taskwait()
				})
			case 2:
				s.chain(tc, 1+rng.Intn(4))
			case 3:
				tc.Taskwait()
			}
		}
	})
}

// canceled runs a region that member 0 cancels between two batches of
// spawns, once the other members are parked at the gate.
func (s *stressRegion) canceled(tm *Team) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return tm.ParallelCtx(ctx, func(tc *Ctx) {
		tc.Master(func() {
			awaitSleepers(tm, int32(tm.Size()-1))
			for k := 0; k < 4; k++ {
				s.task(tc, func(*Ctx) {})
			}
			cancel()
			for k := 0; k < 4; k++ {
				s.task(tc, func(*Ctx) {})
			}
		})
	})
}

// panicking runs a region in which a task spawned by member 0, once
// the other members are parked at the gate, panics among siblings.
func (s *stressRegion) panicking(tm *Team) error {
	return tm.ParallelCtx(context.Background(), func(tc *Ctx) {
		tc.Master(func() {
			awaitSleepers(tm, int32(tm.Size()-1))
			for k := 0; k < 6; k++ {
				if k == 2 {
					s.task(tc, func(*Ctx) { panic("gate-boom") })
					continue
				}
				s.task(tc, func(*Ctx) {})
			}
		})
	})
}

// awaitSleepers waits, for at most 100 ms, until want members are
// parked or parking at tm's region-end gate.
func awaitSleepers(tm *Team, want int32) {
	deadline := time.Now().Add(100 * time.Millisecond)
	for int32(tm.core.Parked()) < want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
