// Package sched provides plumbing shared by the threading runtimes in
// this repository: the task core (TaskCore: per-worker deques, record
// arenas, stealing and the park/wake handshake), per-worker
// pseudo-random victim selection, a lightweight parking primitive,
// scheduler statistics counters, and cancellation regions.
//
// The runtimes in internal/forkjoin and internal/worksteal differ in
// scheduling policy (work-sharing vs work-stealing, OpenMP regions vs
// Cilk frames) — exactly the difference the reproduced paper measures
// — but share this mechanical layer, their explicit tasks included, so
// measured differences between them come from policy and deque kind,
// not from incidental implementation detail.
package sched

import "sync"

// Rand is a small xorshift64* pseudo-random generator. Each worker
// owns one, so victim selection for stealing needs no shared state.
// It is not safe for concurrent use; give each worker its own.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded from seed. A zero seed is
// replaced with a fixed odd constant, since xorshift requires a
// non-zero state.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Next returns the next pseudo-random value.
func (r *Rand) Next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	return int(r.Next() % uint64(n))
}

// Parker blocks a single worker until another worker unparks it.
// Unpark before Park leaves a token, so the wakeup is never lost.
// It is the blocking fallback of the runtimes' spin-then-block idle
// loops.
type Parker struct {
	mu    sync.Mutex
	cond  *sync.Cond
	token bool
	init  sync.Once
}

func (p *Parker) lazyInit() {
	p.init.Do(func() { p.cond = sync.NewCond(&p.mu) })
}

// Park blocks until a token is available, then consumes it.
func (p *Parker) Park() {
	p.lazyInit()
	p.mu.Lock()
	for !p.token {
		p.cond.Wait()
	}
	p.token = false
	p.mu.Unlock()
}

// Unpark deposits a token, waking a parked worker if there is one.
// Multiple Unparks coalesce into a single token.
func (p *Parker) Unpark() {
	p.lazyInit()
	p.mu.Lock()
	p.token = true
	p.cond.Signal()
	p.mu.Unlock()
}
