package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"threading/internal/deque"
	"threading/internal/tracez"
)

// TaskCore is the per-worker task layer both task runtimes embed: one
// TaskSlot per worker (its deque, record arena, steal buffer and
// parker) plus the state the slots share (the arena's overflow
// freelist and the park/wake handshake). A push and a take touch only
// the owner's deque; the rare readers of queued work (Park's re-check,
// Find's wake pass-on, Pending) scan the deques.
// forkjoin's explicit tasks and worksteal's spawns run on it alike, so
// omp_task and cilk_spawn differ in deque kind and in the region and
// join semantics built on top, not in how records are recycled,
// stolen or counted, or in how idle workers are woken. T is the
// runtime's task record; the core never looks inside it.
type TaskCore[T any] struct {
	slots []*TaskSlot[T]
	inbox *deque.Locked[T] // submissions from outside any slot; nil unless asked for

	// freeMu guards the overflow freelist that slot arenas spill to and
	// refill from, so records recycled by a thief circulate back to
	// whoever allocates next. Taken once per freeBatch records at worst.
	freeMu sync.Mutex
	free   []*T

	// Every idle transition moves searching or parkedCount; each gets
	// its own cache line.
	_           [CacheLine]byte
	searching   atomic.Int64 // slots looking for work before they park
	_           [CacheLine - 8]byte
	parkedCount atomic.Int64 // slots parked, or publishing that they park
	_           [CacheLine - 8]byte
}

// TaskSlot is one worker's share of a TaskCore. The fields above the
// first pad are touched only by the goroutine animating the slot;
// parker and parked are written by wakers, so pads keep them off the
// owner's lines and off the next slot's.
type TaskSlot[T any] struct {
	id        int
	core      *TaskCore[T]
	dq        deque.Deque[T]
	rng       Rand
	st        *Shard
	ring      *tracez.Ring
	searching bool
	free      []*T // local arena, at most maxLocalFree records

	// stealBuf receives StealHalf batches; Find re-nils each entry it
	// filled, so a stale entry pins no record.
	stealBuf [stealBatch]*T

	_      [CacheLine]byte
	parker Parker
	parked atomic.Bool
	_      [CacheLine]byte
}

// Arena sizes: freeBatch records move between a local arena and the
// shared list at a time, a local arena holds at most maxLocalFree, and
// the shared list at most maxSharedFree — beyond it records are left
// to the GC, so a spawn storm does not hoard memory forever.
const (
	freeBatch     = 64
	maxLocalFree  = 256
	maxSharedFree = 4096
)

// stealBatch bounds how many records one steal visit migrates.
const stealBatch = 16

// NewTaskCore returns a core of n slots whose deques are of the given
// kind. Slot i counts on stats.Shard(i) and records into tr.Ring(i) (no
// ring on a nil tracer). With inbox set, Submit queues records for any
// slot to take.
func NewTaskCore[T any](n int, kind deque.Kind, stats *Stats, tr *tracez.Tracer, inbox bool) *TaskCore[T] {
	c := &TaskCore[T]{slots: make([]*TaskSlot[T], n)}
	if inbox {
		c.inbox = deque.NewLocked[T]()
	}
	for i := range c.slots {
		c.slots[i] = &TaskSlot[T]{
			id:   i,
			core: c,
			dq:   deque.New[T](kind),
			rng:  *NewRand(uint64(i)*0x9E3779B9 + 1),
			st:   stats.Shard(i),
			ring: tr.Ring(i),
		}
	}
	return c
}

// Slot returns slot i.
func (c *TaskCore[T]) Slot(i int) *TaskSlot[T] { return c.slots[i] }

// Pending reports the records queued on the slots' deques and the
// inbox, not yet taken. It is advisory: a batch a thief has taken and
// not yet requeued is on no deque, and the deques move as it reads.
func (c *TaskCore[T]) Pending() int64 {
	var n int
	for _, s := range c.slots {
		n += s.dq.Len()
	}
	if c.inbox != nil {
		n += c.inbox.Len()
	}
	return int64(n)
}

// queued reports whether any slot's deque or the inbox holds a record.
func (c *TaskCore[T]) queued() bool {
	for _, s := range c.slots {
		if s.dq.Len() > 0 {
			return true
		}
	}
	return c.inbox != nil && c.inbox.Len() > 0
}

// Parked reports the slots parked or committed to parking. Like the
// handshake itself it is advisory and may be momentarily stale.
func (c *TaskCore[T]) Parked() int { return int(c.parkedCount.Load()) }

// Demand reports whether some slot is hungry: parked, or searching.
func (c *TaskCore[T]) Demand() bool {
	return c.searching.Load() > 0 || c.parkedCount.Load() > 0
}

// Submit queues r on the core's inbox, for whichever slot finds it
// first. The core must have been built with an inbox.
func (c *TaskCore[T]) Submit(r *T) {
	c.inbox.PushBottom(r)
	c.signal()
}

// WakeAll unparks every parked slot. Callers make their slots' idle
// condition false first (see Park).
func (c *TaskCore[T]) WakeAll() {
	if c.parkedCount.Load() > 0 {
		c.wake(true)
	}
}

// signal wakes one parked slot, unless a slot is searching: the
// searcher finds the new work on its sweep, or re-scans the deques as
// it parks.
func (c *TaskCore[T]) signal() {
	if c.searching.Load() == 0 && c.parkedCount.Load() > 0 {
		c.wake(false)
	}
}

// wake unparks the first parked slot, or every one when all is set.
// It loads each flag before the CAS, so slots that are not parked keep
// their line shared.
func (c *TaskCore[T]) wake(all bool) {
	for _, s := range c.slots {
		if s.parked.Load() && s.parked.CompareAndSwap(true, false) {
			s.parker.Unpark()
			if !all {
				return
			}
		}
	}
}

// Alloc returns a record from the slot's arena, refilling from the
// shared list when the arena is dry; a fresh heap record is the last
// resort. Only the slot's goroutine may call it (as for Free, Push,
// Find, Search, Park and Idle).
func (s *TaskSlot[T]) Alloc() *T {
	if len(s.free) == 0 {
		s.refill()
	}
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return r
	}
	return new(T)
}

// Free returns r, already reset by the caller, to the slot's arena.
// Records go back to whichever slot ran them; the caller guarantees
// that nothing can reach r any more.
func (s *TaskSlot[T]) Free(r *T) {
	if len(s.free) >= maxLocalFree {
		s.spill()
	}
	s.free = append(s.free, r)
}

// FlushFree hands the arena beyond one refill's worth back to the
// shared list, so the records a thief recycled reach the spawning side
// when the thief goes idle rather than when its arena overflows.
func (s *TaskSlot[T]) FlushFree() {
	for len(s.free) > freeBatch {
		s.spill()
	}
}

// refill moves up to freeBatch records from the shared list to the
// slot's arena.
func (s *TaskSlot[T]) refill() {
	c := s.core
	c.freeMu.Lock()
	k := len(c.free) - min(freeBatch, len(c.free))
	s.free = append(s.free, c.free[k:]...)
	clear(c.free[k:])
	c.free = c.free[:k]
	c.freeMu.Unlock()
}

// spill moves freeBatch records from the slot's arena to the shared
// list, or drops them for the GC when the list is full.
func (s *TaskSlot[T]) spill() {
	k := len(s.free) - min(freeBatch, len(s.free))
	batch := s.free[k:]
	c := s.core
	c.freeMu.Lock()
	if len(c.free)+len(batch) <= maxSharedFree {
		c.free = append(c.free, batch...)
	}
	c.freeMu.Unlock()
	clear(batch)
	s.free = s.free[:k]
}

// Len reports the approximate number of records on the slot's deque.
func (s *TaskSlot[T]) Len() int { return s.dq.Len() }

// Push queues r on the slot's deque and wakes a parked slot to take it
// unless one is searching.
func (s *TaskSlot[T]) Push(r *T) {
	s.dq.PushBottom(r)
	s.core.signal()
}

// Find returns the next record for the slot: its own deque first, then
// the inbox, then one randomized sweep over the other slots. A steal
// takes up to half the victim's queue; the thief keeps the oldest
// record, requeues the rest on its own deque for other thieves, and
// passes the wake on while work is left. A take from the inbox or a
// victim ends the slot's search first, so its own searching flag does
// not swallow that wake (see Park). Nil means all looked empty.
func (s *TaskSlot[T]) Find() *T {
	c := s.core
	if r := s.dq.PopBottom(); r != nil {
		return r
	}
	if c.inbox != nil {
		if r := c.inbox.Steal(); r != nil {
			s.Search(false)
			if c.queued() {
				c.signal()
			}
			return r
		}
	}
	n := len(c.slots)
	if n == 1 {
		return nil
	}
	start := s.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := c.slots[(start+i)%n]
		if v == s {
			continue
		}
		k := v.dq.StealHalf(s.stealBuf[:])
		if k == 0 {
			continue
		}
		s.st.CountSteal()
		s.ring.Record(tracez.KindSteal, int64(v.id), int64(k))
		if k > 1 {
			s.st.CountBatchSteal(k)
			for j := 1; j < k; j++ {
				s.dq.PushBottom(s.stealBuf[j])
				s.stealBuf[j] = nil
			}
		}
		r := s.stealBuf[0]
		s.stealBuf[0] = nil
		s.Search(false)
		if k > 1 || c.queued() { // requeued k-1, or the victim has more
			c.signal()
		}
		return r
	}
	s.st.CountFailedSteal()
	s.ring.Record(tracez.KindStealFail, 0, 0)
	return nil
}

// Search marks the slot as looking for work (on) or not. While any
// slot searches, Push wakes nobody. Starting a search flushes the
// arena, as the slot has just run out of local work.
func (s *TaskSlot[T]) Search(on bool) {
	if on == s.searching {
		return
	}
	s.searching = on
	if on {
		s.core.searching.Add(1)
		s.FlushFree()
	} else {
		s.core.searching.Add(-1)
	}
}

// Park blocks the slot until a Push or WakeAll wakes it, unless a
// record is queued or stillIdle — the caller's own idle condition —
// turns false while it publishes itself. It returns after every wake,
// real or spurious, and callers re-check their condition.
//
// No wake-up is lost. The slot withdraws from searching, raises
// parkedCount and sets parked before it re-scans every deque and the
// inbox and re-reads stillIdle. A pusher puts the record on its deque
// (or the inbox) before it reads searching and parkedCount and claims
// a parked flag; whoever turns stillIdle false (a gate's last arrival,
// Close) does so before WakeAll reads parkedCount. Go's atomics are
// sequentially consistent, and a Locked deque's mutex orders its Len
// after or before the push, so either the re-scan here sees the record
// or the condition and the slot does not block, or the waker sees the
// slot published and unparks it — and an Unpark that lands before Park
// leaves a token, so it is not lost either. A pusher that reads
// searching > 0 wakes nobody: that searcher finds the record on its
// sweep, or parks, and then its own re-scan sees the record.
//
// One window has no record on any deque: a batch a thief has taken
// off a victim and not yet requeued on its own. The re-scan can miss
// it, so the thief's signal after the requeue is what covers it, and
// that is why the thief leaves searching before it signals (Find): a
// thief still counted as searching would read its own flag and wake
// nobody, and the batch would wait for the thief to finish its record.
// The requeue comes before the thief reads parkedCount, so the same
// argument as for a push holds. A token left by a waker that raced a
// slot which then did not block only cuts a later Park short.
func (s *TaskSlot[T]) Park(stillIdle func() bool) {
	c := s.core
	s.Search(false)
	c.parkedCount.Add(1)
	s.parked.Store(true)
	if !c.queued() && stillIdle() {
		s.FlushFree()
		s.st.CountPark()
		s.ring.Record(tracez.KindPark, 0, 0)
		s.parker.Park()
		s.ring.Record(tracez.KindUnpark, 0, 0)
	}
	s.parked.Store(false)
	c.parkedCount.Add(-1)
}

// IdleSpin is how long Idle polls before it parks. A goroutine readied
// by Unpark lands in the waker's runnext slot, and while the waker keeps
// computing another P takes it only after runqgrab's usleep(3), about
// 55 us under the default 50 us timer slack. Polling for about that
// long before blocking is the spin-then-block break-even; 50 and
// 100 us measured alike.
const IdleSpin = 50 * time.Microsecond

// Idle waits while stillIdle holds: it polls stillIdle, yielding
// between polls, for IdleSpin, then parks with Park(stillIdle). Like
// Park it can return with stillIdle still true, so callers loop.
func (s *TaskSlot[T]) Idle(stillIdle func() bool) {
	deadline := time.Now().Add(IdleSpin)
	for stillIdle() {
		if time.Now().After(deadline) {
			s.Park(stillIdle)
			return
		}
		runtime.Gosched()
	}
}
