package sched

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"threading/internal/deque"
)

// stressRec is the record type of TestTaskCoreHandshakeStress.
type stressRec struct {
	id       int32
	children int32
}

// coreRound is the shared state of one round of the stress test: the
// gate its slots wait at (live records, arrivals) and each record's run
// count.
type coreRound struct {
	core    *TaskCore[stressRec]
	n       int64
	seed    uint64
	hits    [1024]atomic.Int32
	next    atomic.Int32
	live    atomic.Int64 // records pushed and not yet run
	arrived atomic.Int64
	stuck   atomic.Pointer[string] // first bounded wait that ran out
}

// TestTaskCoreHandshakeStress drives the core's push, find, steal and
// park/wake handshake through thousands of rounds on cores of 2, 3 and
// 4 slots over both deque kinds, each slot animated by an owner
// goroutine. In a round every owner pushes records at random points
// (some only once another slot has parked), then waits at a gate the
// way forkjoin's region end does: it finds and runs records while any
// is live, searches for a few rounds, then parks with a stillIdle
// predicate — the gate's own (no record live, not all arrived) in even
// rounds, one blind to records as the pool's is in odd rounds; the
// last arrival's WakeAll ends the round. Records spawn
// children when run. Every record must run exactly once; a pusher
// that waits for its record while another slot is at the gate must
// see it run within a bounded time, or the test names the slots left
// parked with work queued; at quiescence every record in the arenas
// is in one list only and both arena caps hold; and the goroutines are
// gone at the end.
func TestTaskCoreHandshakeStress(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	base := runtime.NumGoroutine()
	for _, n := range []int{2, 3, 4} {
		for _, kind := range []deque.Kind{deque.KindLocked, deque.KindChaseLev} {
			stats := NewStats(n)
			c := NewTaskCore[stressRec](n, kind, stats, nil, false)
			start := make([]chan *coreRound, n)
			done := make(chan struct{}, n)
			for i := range start {
				start[i] = make(chan *coreRound)
				go func() {
					for r := range start[i] {
						r.owner(c.Slot(i))
						done <- struct{}{}
					}
				}()
			}
			for i := 0; i < rounds/2; i++ {
				r := &coreRound{core: c, n: int64(n), seed: uint64(i)}
				for _, ch := range start {
					ch <- r
				}
				for range n {
					select {
					case <-done:
					case <-time.After(10 * time.Second):
						t.Fatalf("n=%d %v round %d: did not end; %s", n, kind, i, parkedWithWork(c))
					}
				}
				if msg := r.stuck.Load(); msg != nil {
					t.Fatalf("n=%d %v round %d: %s", n, kind, i, *msg)
				}
				for id := range r.next.Load() {
					if got := r.hits[id].Load(); got != 1 {
						t.Fatalf("n=%d %v round %d: record %d ran %d times", n, kind, i, id, got)
					}
				}
				if i%50 == 49 || i == rounds/2-1 {
					if err := checkArena(c); err != nil {
						t.Fatalf("n=%d %v round %d: %v", n, kind, i, err)
					}
				}
			}
			for _, ch := range start {
				close(ch)
			}
			if stats.Snapshot().Parks == 0 {
				t.Fatalf("n=%d %v: no slot parked in %d rounds", n, kind, rounds/2)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after the last round, %d before the first", g, base)
	}
}

// owner is one slot's part of a round: a body of random steps, then
// the gate.
func (r *coreRound) owner(s *TaskSlot[stressRec]) {
	rng := NewRand(r.seed<<3 + uint64(s.id) + 1)
	for step := rng.Intn(5); step > 0; step-- {
		switch rng.Intn(5) {
		case 0:
			for spin := rng.Intn(100); spin > 0; spin-- {
				runtime.Gosched()
			}
		case 1:
			// A batch, so thieves take more than one record a visit.
			ids := make([]int32, 1+rng.Intn(6))
			for k := range ids {
				ids[k] = r.push(s, int32(rng.Intn(3)))
			}
			if rng.Intn(2) == 0 {
				r.awaitRun(ids...)
			}
		case 2:
			// Push once another slot has parked.
			r.awaitParked(20 * time.Millisecond)
			r.awaitRun(r.push(s, 0))
		case 3:
			r.awaitRun(r.push(s, 1+int32(rng.Intn(3))))
		case 4:
			// Churn the arena past both caps now and then.
			if rng.Intn(40) == 0 {
				recs := make([]*stressRec, 600+rng.Intn(5000))
				for k := range recs {
					recs[k] = s.Alloc()
				}
				for _, rec := range recs {
					s.Free(rec)
				}
			}
		}
	}
	if r.arrived.Add(1) == r.n {
		r.core.WakeAll()
	}
	idle := 0
	for {
		if r.live.Load() > 0 {
			if rec := s.Find(); rec != nil {
				s.Search(false)
				r.run(s, rec)
			} else {
				runtime.Gosched()
			}
			idle = 0
			continue
		}
		if r.arrived.Load() == r.n {
			s.Search(false)
			return
		}
		if idle++; idle < 8 {
			s.Search(true)
			runtime.Gosched()
			continue
		}
		idle = 0
		// Yield between deciding to park and parking: the window the
		// re-check after publishing parked closes.
		runtime.Gosched()
		if r.seed%2 == 0 {
			s.Park(func() bool { return r.live.Load() == 0 && r.arrived.Load() < r.n })
		} else {
			// Blind to queued work, as a pool worker's is: only Park's
			// own re-scan of the deques keeps the slot from sleeping
			// on a record pushed since live was read.
			s.Park(func() bool { return r.arrived.Load() < r.n })
		}
	}
}

// push queues a record that spawns children records when run, and
// returns its id.
func (r *coreRound) push(s *TaskSlot[stressRec], children int32) int32 {
	id := r.next.Add(1) - 1
	r.live.Add(1)
	rec := s.Alloc()
	rec.id, rec.children = id, children
	s.Push(rec)
	return id
}

// run runs rec on s: count it, push its children, retire it.
func (r *coreRound) run(s *TaskSlot[stressRec], rec *stressRec) {
	r.hits[rec.id].Add(1)
	for range rec.children {
		r.push(s, 0)
	}
	r.live.Add(-1)
	*rec = stressRec{}
	s.Free(rec)
}

// awaitRun waits until the records ids have run, provided some slot is
// at the gate to run them: a slot parked there with a record queued
// must have been woken. It records the parked slots when 2 s pass.
func (r *coreRound) awaitRun(ids ...int32) {
	if r.arrived.Load() == 0 {
		return
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, id := range ids {
		for r.hits[id].Load() == 0 {
			if time.Now().After(deadline) {
				msg := fmt.Sprintf("record %d not run within 2 s with a slot at the gate; %s", id, parkedWithWork(r.core))
				r.stuck.CompareAndSwap(nil, &msg)
				return
			}
			runtime.Gosched()
		}
	}
}

// awaitParked waits, for at most d, until some slot is parked.
func (r *coreRound) awaitParked(d time.Duration) {
	deadline := time.Now().Add(d)
	for r.core.Parked() == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// parkedWithWork names the slots parked while records are queued.
func parkedWithWork(c *TaskCore[stressRec]) string {
	var parked []string
	for _, s := range c.slots {
		if s.parked.Load() {
			parked = append(parked, fmt.Sprint(s.id))
		}
	}
	return fmt.Sprintf("queued=%d, parked slots [%s]", c.Pending(), strings.Join(parked, " "))
}

// checkArena checks the core at quiescence: nothing queued, no steal
// buffer entry left, every free record in exactly one list, and both
// arena caps held. Pending sums the deques' lengths, so its check
// asserts that every deque is empty (as the per-slot check below
// does), not that a queued-work count balances.
func checkArena(c *TaskCore[stressRec]) error {
	if p := c.Pending(); p != 0 {
		return fmt.Errorf("%d records queued at quiescence", p)
	}
	seen := make(map[*stressRec]string)
	note := func(rec *stressRec, list string) error {
		if prev, ok := seen[rec]; ok {
			return fmt.Errorf("record %p is in %s and %s", rec, prev, list)
		}
		seen[rec] = list
		return nil
	}
	for _, s := range c.slots {
		if s.dq.Len() != 0 {
			return fmt.Errorf("slot %d holds %d queued records at quiescence", s.id, s.dq.Len())
		}
		for _, rec := range s.stealBuf {
			if rec != nil {
				return fmt.Errorf("slot %d's steal buffer still holds a record", s.id)
			}
		}
		if len(s.free) > maxLocalFree {
			return fmt.Errorf("slot %d's arena holds %d records, cap %d", s.id, len(s.free), maxLocalFree)
		}
		for _, rec := range s.free {
			if err := note(rec, fmt.Sprintf("slot %d's arena", s.id)); err != nil {
				return err
			}
		}
	}
	if len(c.free) > maxSharedFree {
		return fmt.Errorf("shared list holds %d records, cap %d", len(c.free), maxSharedFree)
	}
	for _, rec := range c.free {
		if err := note(rec, "the shared list"); err != nil {
			return err
		}
	}
	return nil
}

// TestTaskCoreDequesShareNoLine: a slot's bottom, written by its owner
// on every push and pop, must not share a line with another slot's
// thief-CAS'd top or with the inbox's mutex, so no two deque headers
// of one core, inbox included, may touch the same cache line.
func TestTaskCoreDequesShareNoLine(t *testing.T) {
	for _, kind := range []deque.Kind{deque.KindChaseLev, deque.KindLocked} {
		const n = 6
		c := NewTaskCore[stressRec](n, kind, NewStats(n), nil, true)
		owner := map[uintptr]string{} // line index -> header on it
		claim := func(name string, header any) {
			v := reflect.ValueOf(header)
			addr, size := v.Pointer(), v.Elem().Type().Size()
			for line := addr / CacheLine; line <= (addr+size-1)/CacheLine; line++ {
				if other, ok := owner[line]; ok {
					t.Errorf("%v: %s and %s share the line at %#x", kind, other, name, line*CacheLine)
				}
				owner[line] = name
			}
		}
		for _, s := range c.slots {
			claim(fmt.Sprintf("slot %d", s.id), s.dq)
		}
		claim("the inbox", c.inbox)
	}
}
