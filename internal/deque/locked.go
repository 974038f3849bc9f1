package deque

import "sync"

// Locked is a mutex-protected work-stealing deque. It models the
// lock-based task deques used by the Intel OpenMP runtime: the owner
// and every thief contend on a single lock, so under heavy stealing
// (fine-grained recursive tasks such as Fibonacci) the lock becomes a
// serialization point. The zero value is ready to use.
//
// Every push, pop and steal writes mu, so the trailing pad makes the
// header one whole line (64 bytes): Go's 64-byte size class keeps it
// line-aligned. Unpadded it is 32 bytes, and the 32-byte class puts a
// second deque header, or a Chase-Lev ring header that every push and
// pop reads, on the same line.
type Locked[T any] struct {
	mu    sync.Mutex // 8 bytes
	items []*T       // 24 bytes
	_     [CacheLine - 32]byte
}

// NewLocked returns an empty lock-based deque.
func NewLocked[T any]() *Locked[T] {
	return &Locked[T]{}
}

// PushBottom adds v at the owner end.
func (d *Locked[T]) PushBottom(v *T) {
	d.mu.Lock()
	d.items = append(d.items, v)
	d.mu.Unlock()
}

// PopBottom removes the most recently pushed element, or returns nil
// if the deque is empty.
func (d *Locked[T]) PopBottom() *T {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	v := d.items[n-1]
	d.items[n-1] = nil // release for GC
	d.items = d.items[:n-1]
	d.mu.Unlock()
	return v
}

// Steal removes the oldest element, or returns nil if the deque is
// empty.
func (d *Locked[T]) Steal() *T {
	d.mu.Lock()
	if len(d.items) == 0 {
		d.mu.Unlock()
		return nil
	}
	v := d.items[0]
	d.items[0] = nil
	d.items = d.items[1:]
	d.mu.Unlock()
	return v
}

// StealHalf removes up to half of the queued elements (rounded up)
// from the top into buf under a single lock acquisition — one
// serialization point for the whole batch, where per-element Steal
// calls would contend with the owner once per task.
func (d *Locked[T]) StealHalf(buf []*T) int {
	d.mu.Lock()
	n := (len(d.items) + 1) / 2
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = d.items[i]
		d.items[i] = nil
	}
	d.items = d.items[n:]
	d.mu.Unlock()
	return n
}

// Len reports the current number of queued elements.
func (d *Locked[T]) Len() int {
	d.mu.Lock()
	n := len(d.items)
	d.mu.Unlock()
	return n
}
