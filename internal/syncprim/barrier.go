// Package syncprim implements the barriers the threading runtimes in
// this repository are built on: two algorithms, ablated in the
// benchmarks.
//
// The paper compares programming models partly by the synchronization
// constructs they expose (Table II); this package is the substrate on
// which internal/forkjoin realizes the OpenMP-style barrier and single
// constructs.
package syncprim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Barrier is a reusable rendezvous point for a fixed number of
// participants: each Wait call blocks until all participants of the
// current phase have arrived.
type Barrier interface {
	// Wait blocks the caller until all participants have called Wait
	// for the current phase, then releases them all and begins a new
	// phase. It returns true for exactly one (arbitrary) participant
	// per phase, which lets callers implement "single" semantics.
	Wait() bool
	// Participants reports the number of parties the barrier was
	// created for.
	Participants() int
}

// spinRounds is how long a barrier waiter spins before blocking.
// Spinning briefly keeps short rendezvous off the scheduler; blocking
// afterwards keeps long waits from burning a core.
const spinRounds = 64

// SenseBarrier is a sense-reversing centralized barrier. Arrivals
// decrement a shared counter; the last arrival resets the counter and
// flips the phase sense, releasing the spinning waiters. Waiters spin
// briefly on the sense word before falling back to a condition
// variable, so the barrier is fast when all parties arrive together
// and civilized when they do not.
type SenseBarrier struct {
	n     int
	count atomic.Int64
	sense atomic.Uint64 // phase number, incremented on release

	mu   sync.Mutex
	cond *sync.Cond
}

// NewSenseBarrier returns a sense-reversing barrier for n participants.
// n must be at least 1.
func NewSenseBarrier(n int) *SenseBarrier {
	if n < 1 {
		panic("syncprim: barrier needs at least 1 participant")
	}
	b := &SenseBarrier{n: n}
	b.count.Store(int64(n))
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Participants reports the number of parties.
func (b *SenseBarrier) Participants() int { return b.n }

// Wait blocks until all participants arrive. The last arrival returns
// true; all others return false.
func (b *SenseBarrier) Wait() bool {
	phase := b.sense.Load()
	if b.count.Add(-1) == 0 {
		// Last arrival: reset and release.
		b.count.Store(int64(b.n))
		b.mu.Lock()
		b.sense.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return true
	}
	for i := 0; i < spinRounds; i++ {
		if b.sense.Load() != phase {
			return false
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	for b.sense.Load() == phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
	return false
}

// CentralBarrier is a textbook mutex-and-condition-variable barrier.
// It exists as the ablation partner of SenseBarrier: every arrival
// takes the lock, so it serializes arrivals where SenseBarrier uses a
// single atomic decrement.
type CentralBarrier struct {
	n     int
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	phase uint64
}

// NewCentralBarrier returns a lock-based barrier for n participants.
// n must be at least 1.
func NewCentralBarrier(n int) *CentralBarrier {
	if n < 1 {
		panic("syncprim: barrier needs at least 1 participant")
	}
	b := &CentralBarrier{n: n, count: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Participants reports the number of parties.
func (b *CentralBarrier) Participants() int { return b.n }

// Wait blocks until all participants arrive. The last arrival returns
// true; all others return false.
func (b *CentralBarrier) Wait() bool {
	b.mu.Lock()
	phase := b.phase
	b.count--
	if b.count == 0 {
		b.count = b.n
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return true
	}
	for phase == b.phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
	return false
}
