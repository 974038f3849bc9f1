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
// reusable, members park at the gate itself (not only between regions),
// and Close leaves no goroutine behind.
func TestRegionEndGateStress(t *testing.T) {
	regions := 2000
	if testing.Short() {
		regions = 200
	}
	base := runtime.NumGoroutine()
	for _, n := range []int{2, 3, 4} {
		tm := NewTeam(n)
		var gateParks int64
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
			gateParks += s.gateParks
		}
		if gateParks == 0 {
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

	entered   atomic.Int32 // non-master members inside the region (sleepAtGate)
	release   atomic.Bool  // member 0 has read the park count
	gateParks int64        // parks counted at the gate (sleepAtGate)
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
		s.sleepAtGate(tc, tm)
		tc.Master(func() {
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
		s.sleepAtGate(tc, tm)
		tc.Master(func() {
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

// sleepAtGate opens a region on every member and returns on member 0
// once the others are parked at the region-end gate, with s.gateParks
// set to the parks counted since they entered the region. Member 0
// reads the base count only when every other member is inside the
// region body, so their waits for this region, parks included, are
// already in it, and before it releases them to the gate, so no gate
// park is.
func (s *stressRegion) sleepAtGate(tc *Ctx, tm *Team) {
	if tc.ID() != 0 {
		s.entered.Add(1)
		for !s.release.Load() {
			runtime.Gosched()
		}
		return
	}
	for s.entered.Load() < int32(tm.Size()-1) {
		runtime.Gosched()
	}
	base := tm.Stats().Parks
	s.release.Store(true)
	awaitSleepers(tm, int32(tm.Size()-1))
	s.gateParks = tm.Stats().Parks - base
}

// awaitSleepers waits, for at most 100 ms, until want members are
// parked or parking: at tm's region-end gate, or not yet back from
// their wait for the region.
func awaitSleepers(tm *Team, want int32) {
	deadline := time.Now().Add(100 * time.Millisecond)
	for int32(tm.core.Parked()) < want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// TestRegionEntryParkStress drives region entry through thousands of
// short regions on teams of 2, 3 and 4. Between regions the master
// idles 0, half of sched.IdleSpin or twice it, so members take the next
// region while polling, while publishing a park, or parked; a team is
// closed after a random number of regions (none, sometimes) and a
// random idle gap, so Close also meets polling and parked members.
// Every member runs every region exactly once, nothing hangs past the
// deadline, and each Close leaves no goroutine behind.
func TestRegionEntryParkStress(t *testing.T) {
	regions := 3000
	if testing.Short() {
		regions = 300
	}
	gaps := [...]time.Duration{0, sched.IdleSpin / 2, 2 * sched.IdleSpin}
	rng := sched.NewRand(32)
	idle := func() {
		gap := gaps[rng.Intn(len(gaps))]
		for start := time.Now(); time.Since(start) < gap; {
			runtime.Gosched()
		}
	}
	base := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, n := range []int{2, 3, 4} {
			for left := regions; left > 0; {
				tm := NewTeam(n)
				var runs [4]atomic.Int32
				k := min(rng.Intn(100), left)
				for i := 1; i <= k; i++ {
					idle()
					tm.Parallel(func(tc *Ctx) { runs[tc.ID()].Add(1) })
					for id := 0; id < n; id++ {
						if got := runs[id].Load(); got != int32(i) {
							t.Errorf("n=%d: member %d ran %d regions of %d", n, id, got, i)
							return
						}
					}
				}
				left -= k
				idle()
				tm.Close()
				for id := 0; id < n; id++ {
					if got := runs[id].Load(); got != int32(k) {
						t.Errorf("n=%d: member %d ran %d regions of %d by Close", n, id, got, k)
						return
					}
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > base+1 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if g := runtime.NumGoroutine(); g > base+1 {
					t.Errorf("n=%d: %d goroutines after Close, %d before the test", n, g-1, base)
					return
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("region entry or Close hung")
	}
}
