// Package deque provides work-stealing double-ended queues.
//
// Two implementations are provided behind the same interface:
//
//   - ChaseLev: a lock-free growable deque after Chase and Lev
//     ("Dynamic Circular Work-Stealing Deque", SPAA 2005), the design
//     used by Cilk-style runtimes. The owner pushes and pops at the
//     bottom without locking; thieves steal from the top with a single
//     compare-and-swap.
//
//   - Locked: a mutex-protected deque, modelling the lock-based task
//     deques of the Intel OpenMP task runtime. Every operation takes
//     the lock, so concurrent steals serialize against the owner.
//
// The paper this repository reproduces attributes the performance gap
// between cilk_spawn and omp task on recursive task parallelism
// (Fibonacci, Fig. 5) to exactly this difference, so both designs are
// first-class here and the schedulers in internal/worksteal can be
// configured with either.
package deque

// CacheLine is the assumed cache-line size in bytes. Hot structs that
// are written by different workers are padded in units of this so
// their stores do not false-share; 64 covers every platform this
// module targets (x86-64 and arm64 both use 64-byte lines). It lives
// here, the lowest package that pads, so the deque headers and the
// schedulers built on them agree on one value (sched.CacheLine).
const CacheLine = 64

// Deque is a work-stealing deque of *T. The owner worker calls
// PushBottom and PopBottom; any other worker may call Steal
// concurrently. A nil return means the deque was (or appeared) empty.
type Deque[T any] interface {
	// PushBottom adds v to the bottom (owner end) of the deque.
	// Only the owning worker may call it.
	PushBottom(v *T)
	// PopBottom removes and returns the most recently pushed element,
	// or nil if the deque is empty. Only the owning worker may call it.
	PopBottom() *T
	// Steal removes and returns the oldest element, or nil if the
	// deque is empty or the steal lost a race. Any worker may call it.
	Steal() *T
	// StealHalf removes up to half of the queued elements (rounded up,
	// so a single element is still stealable) from the top, oldest
	// first, stores them into buf, and returns how many were taken —
	// never more than len(buf). Zero means the deque was (or appeared)
	// empty, or the steal lost a race. Any worker may call it.
	//
	// Batch stealing is what lets a thief migrate half a victim's loop
	// chunks in one visit instead of re-running the victim-selection
	// protocol once per task — the steal-serialization the reproduced
	// paper blames for cilk_for's flat-loop losses. The Locked backend
	// migrates the whole batch under a single lock acquisition; the
	// Chase-Lev backend pays one top CAS per element (each individually
	// linearizable, so no element is ever lost or duplicated) but still
	// amortizes the visit.
	StealHalf(buf []*T) int
	// Len reports the approximate number of elements. It is only a
	// snapshot: concurrent operations may change it immediately.
	Len() int
}

// Kind selects a deque implementation.
type Kind int

const (
	// KindChaseLev selects the lock-free Chase-Lev deque.
	KindChaseLev Kind = iota
	// KindLocked selects the mutex-based deque.
	KindLocked
)

// String returns the human-readable name of the deque kind.
func (k Kind) String() string {
	switch k {
	case KindChaseLev:
		return "chase-lev"
	case KindLocked:
		return "locked"
	default:
		return "unknown"
	}
}

// New returns an empty deque of the requested kind.
func New[T any](kind Kind) Deque[T] {
	switch kind {
	case KindLocked:
		return NewLocked[T]()
	default:
		return NewChaseLev[T]()
	}
}
