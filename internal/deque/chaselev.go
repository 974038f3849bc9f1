package deque

import "sync/atomic"

// minRingCap is the initial capacity of a ChaseLev ring buffer.
// It must be a power of two.
const minRingCap = 64

// ring is a fixed-size circular buffer of atomically accessed slots.
// Elements are addressed by an ever-increasing int64 index modulo the
// ring size; the mask makes the modulo a single AND.
type ring[T any] struct {
	mask  int64
	slots []atomic.Pointer[T]
}

func newRing[T any](capacity int64) *ring[T] {
	return &ring[T]{
		mask:  capacity - 1,
		slots: make([]atomic.Pointer[T], capacity),
	}
}

func (r *ring[T]) load(i int64) *T     { return r.slots[i&r.mask].Load() }
func (r *ring[T]) store(i int64, v *T) { r.slots[i&r.mask].Store(v) }
func (r *ring[T]) capacity() int64     { return r.mask + 1 }

// grow returns a ring of twice the capacity holding the elements in
// the logical index range [top, bottom).
func (r *ring[T]) grow(top, bottom int64) *ring[T] {
	next := newRing[T](2 * r.capacity())
	for i := top; i < bottom; i++ {
		next.store(i, r.load(i))
	}
	return next
}

// ChaseLev is a lock-free, growable work-stealing deque. The zero
// value is not usable; construct with NewChaseLev.
//
// The owner operates on the bottom end without synchronization beyond
// atomic loads and stores; thieves synchronize on the top index with a
// compare-and-swap. Go's sync/atomic operations are sequentially
// consistent, which satisfies the fence requirements of the original
// algorithm.
// top is padded away from bottom and buf: thieves hammer top with
// loads and CASes while the owner updates bottom on every push/pop,
// and with all three words on one line every steal attempt would
// invalidate the owner's line (and vice versa). Splitting them keeps
// the owner's hot push/pop traffic on a line thieves only read when
// sizing a batch.
//
// The trailing pad makes the header exactly two lines (128 bytes), so
// it lands in Go's 128-byte size class, whose objects sit at multiples
// of 128 in a page-aligned span: top's line and bottom's line are then
// the header's own. Without it the header is 80 bytes, the 80-byte
// class packs the task core's per-slot deques 80 bytes apart, and one
// slot's bottom shares a line with the next slot's top.
type ChaseLev[T any] struct {
	top    atomic.Int64
	_      [CacheLine - 8]byte
	bottom atomic.Int64
	buf    atomic.Pointer[ring[T]]
	_      [CacheLine - 16]byte
}

// NewChaseLev returns an empty lock-free deque.
func NewChaseLev[T any]() *ChaseLev[T] {
	d := &ChaseLev[T]{}
	d.buf.Store(newRing[T](minRingCap))
	return d
}

// PushBottom adds v at the owner end. Only the owner may call it.
func (d *ChaseLev[T]) PushBottom(v *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t >= buf.capacity() {
		buf = buf.grow(t, b)
		d.buf.Store(buf)
	}
	buf.store(b, v)
	d.bottom.Store(b + 1)
}

// PopBottom removes the most recently pushed element, or returns nil
// if the deque is empty. Only the owner may call it.
func (d *ChaseLev[T]) PopBottom() *T {
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Deque was empty; restore the invariant bottom >= top.
		d.bottom.Store(t)
		return nil
	}
	v := buf.load(b)
	if t == b {
		// Last element: race against thieves for it.
		if !d.top.CompareAndSwap(t, t+1) {
			v = nil // a thief won
		}
		d.bottom.Store(t + 1)
	}
	return v
}

// Steal removes the oldest element, or returns nil if the deque is
// empty or the steal lost a race with another thief or the owner.
func (d *ChaseLev[T]) Steal() *T {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	buf := d.buf.Load()
	v := buf.load(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return v
}

// StealHalf removes up to half of the queued elements from the top
// into buf. A single-CAS multi-element steal is unsound on a pure
// Chase-Lev deque (the owner pops non-last elements without
// synchronizing against top, so a batch reservation can overlap pops
// that already happened), so each element is taken with its own top
// CAS — exactly the proven Steal step. The batch still amortizes the
// expensive part of stealing: victim selection, the cache miss on the
// victim's descriptor, and the wake-up of further thieves happen once
// per visit instead of once per task. The run stops at the first lost
// race.
func (d *ChaseLev[T]) StealHalf(buf []*T) int {
	t := d.top.Load()
	b := d.bottom.Load()
	avail := b - t
	if avail <= 0 {
		return 0
	}
	want := int((avail + 1) / 2)
	if want > len(buf) {
		want = len(buf)
	}
	n := 0
	for n < want {
		v := d.Steal()
		if v == nil {
			break
		}
		buf[n] = v
		n++
	}
	return n
}

// Len reports the approximate number of queued elements.
func (d *ChaseLev[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
