package futures

import (
	"sync"

	"threading/internal/sched"
)

// Policy selects how Async runs its function, mirroring std::launch.
type Policy int

const (
	// LaunchAsync runs the function immediately on a new thread of
	// execution — std::launch::async.
	LaunchAsync Policy = iota
	// LaunchDeferred delays the function until the first Get, which
	// then runs it on the getter's goroutine — std::launch::deferred.
	LaunchDeferred
)

// String returns the std::launch-style name of the policy.
func (p Policy) String() string {
	switch p {
	case LaunchAsync:
		return "async"
	case LaunchDeferred:
		return "deferred"
	default:
		return "unknown"
	}
}

// Async runs fn under the given policy and returns a future for its
// result. A panic in fn surfaces as a *sched.PanicError (wrapping the
// recovered value and the panicking goroutine's stack) from Get.
func Async[T any](policy Policy, fn func() (T, error)) *Future[T] {
	safe := func() (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = sched.NewPanicError(r)
			}
		}()
		return fn()
	}
	if policy == LaunchDeferred {
		b := &deferredBox[T]{}
		b.st.done = make(chan struct{})
		b.fut = Future[T]{st: &b.st, deferredOnce: &b.once, deferredFn: safe}
		return &b.fut
	}
	// The async path delivers straight into a fused state+future
	// record — no intermediate Promise, and one heap object (plus the
	// done channel) instead of four.
	b := &asyncBox[T]{}
	b.st.done = make(chan struct{})
	b.fut.st = &b.st
	go func() {
		v, err := safe()
		b.st.deliver(v, err, true)
	}()
	return &b.fut
}

// asyncBox fuses an Async future's handle and shared state into one
// allocation.
type asyncBox[T any] struct {
	fut Future[T]
	st  futureState[T]
}

// deferredBox additionally embeds the once guarding the deferred
// function's single execution.
type deferredBox[T any] struct {
	fut  Future[T]
	st   futureState[T]
	once sync.Once
}
