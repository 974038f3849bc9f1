// Package futures provides a C++11-style threading layer: Thread
// (std::thread), Promise/Future (std::promise / std::future) and Async
// with launch policies (std::async).
//
// In the reproduced paper this is the "C++11" contender: parallel
// loops are expressed by manual chunking — create one thread (or one
// async task) per chunk, join them all — and recursive task
// parallelism by std::async with a cut-off. A Thread here is a fresh
// goroutine per call, deliberately without pooling, so thread-creation
// overhead appears in measurements the way std::thread's does.
package futures

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"threading/internal/sched"
)

// Thread runs a function concurrently, like std::thread: it starts
// executing immediately on construction and must be joined (or
// detached) exactly once before it is discarded.
type Thread struct {
	done     chan struct{}
	panicErr *sched.PanicError
	joined   atomic.Bool
	detached atomic.Bool
}

// NewThread starts fn on a new thread of execution.
func NewThread(fn func()) *Thread {
	t := &Thread{done: make(chan struct{})}
	go func() {
		defer close(t.done)
		defer func() {
			if r := recover(); r != nil {
				t.panicErr = sched.NewPanicError(r)
			}
		}()
		fn()
	}()
	return t
}

// Join blocks until the thread's function returns. If the function
// panicked, Join re-panics on the joiner (where std::thread would
// have terminated the process). Join must be called at most once and
// not after Detach.
func (t *Thread) Join() {
	if t.detached.Load() {
		panic("futures: Join after Detach")
	}
	if t.joined.Swap(true) {
		panic("futures: thread joined twice")
	}
	<-t.done
	if t.panicErr != nil {
		panic(fmt.Sprintf("futures: thread panicked: %v", t.panicErr.Value))
	}
}

// JoinCtx waits for the thread's function to return or for ctx to be
// done, whichever happens first. If the thread finished, the join is
// consumed and JoinCtx returns nil — or the thread's panic as a
// *sched.PanicError instead of re-panicking. If ctx expired first,
// JoinCtx returns the context's error and the thread keeps running
// and remains joinable (a goroutine cannot be killed; cancellation
// here bounds the wait, not the work).
func (t *Thread) JoinCtx(ctx context.Context) error {
	if t.detached.Load() {
		panic("futures: Join after Detach")
	}
	select {
	case <-t.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if t.joined.Swap(true) {
		panic("futures: thread joined twice")
	}
	if t.panicErr != nil {
		return t.panicErr
	}
	return nil
}

// Detach lets the thread run to completion unobserved. After Detach
// the thread must not be joined.
func (t *Thread) Detach() {
	if t.joined.Load() {
		panic("futures: Detach after Join")
	}
	t.detached.Store(true)
}

// Joinable reports whether the thread can still be joined.
func (t *Thread) Joinable() bool {
	return !t.joined.Load() && !t.detached.Load()
}

// ErrBrokenPromise is the error for a promise dropped without a value —
// the analogue of std::future_error with broken_promise. No operation
// here breaks a promise, so Future.Get does not return it.
var ErrBrokenPromise = errors.New("futures: broken promise")

// futureState is the shared state between a Promise and its Future.
// done is closed once val/err are written, so waiters can block on a
// channel receive — which also lets GetCtx select against a
// context's cancellation.
type futureState[T any] struct {
	mu    sync.Mutex
	done  chan struct{}
	ready bool
	val   T
	err   error
}

// deliver writes the outcome and closes done. It reports whether this
// call was the one that delivered; if strict, a second delivery
// panics instead.
func (st *futureState[T]) deliver(v T, err error, strict bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ready {
		if strict {
			panic("futures: promise satisfied twice")
		}
		return false
	}
	st.val, st.err, st.ready = v, err, true
	close(st.done)
	return true
}

// Future is the receiving end of a Promise: Get blocks until a value
// or error is delivered.
type Future[T any] struct {
	st *futureState[T]
	// deferredFn, when non-nil, is executed lazily by the first Get —
	// std::launch::deferred semantics.
	deferredOnce *sync.Once
	deferredFn   func() (T, error)
}

// Promise is the producing end: exactly one of Set or SetError should
// be called. A Promise produces a single Future via Future.
type Promise[T any] struct {
	st *futureState[T]
	// fut is the fused future handle (see promiseBox); Future hands it
	// out instead of allocating per call.
	fut *Future[T]
}

// promiseBox fuses a promise, its future handle, and their shared
// state into one allocation, so the promise/future pair costs one
// heap object plus the done channel instead of four.
type promiseBox[T any] struct {
	p   Promise[T]
	fut Future[T]
	st  futureState[T]
}

// NewPromise returns an unfulfilled promise.
func NewPromise[T any]() *Promise[T] {
	b := &promiseBox[T]{}
	b.st.done = make(chan struct{})
	b.fut.st = &b.st
	b.p.st = &b.st
	b.p.fut = &b.fut
	return &b.p
}

// Future returns the future associated with this promise.
func (p *Promise[T]) Future() *Future[T] {
	if p.fut != nil {
		return p.fut
	}
	// A Promise built outside NewPromise (zero value plus manual state)
	// has no fused handle; fall back to a fresh one.
	return &Future[T]{st: p.st}
}

// Set delivers the value, waking all waiters. Setting a promise twice
// panics.
func (p *Promise[T]) Set(v T) {
	p.st.deliver(v, nil, true)
}

// SetError delivers an error instead of a value.
func (p *Promise[T]) SetError(err error) {
	var zero T
	p.st.deliver(zero, err, true)
}

// force runs a deferred future's function on the calling goroutine,
// once — std::launch::deferred.
func (f *Future[T]) force() {
	if f.deferredFn == nil {
		return
	}
	f.deferredOnce.Do(func() {
		v, err := f.deferredFn()
		f.st.deliver(v, err, false)
	})
}

// Get blocks until the value is available and returns it. For a
// deferred future, Get runs the deferred function on the calling
// goroutine the first time — std::launch::deferred.
func (f *Future[T]) Get() (T, error) {
	f.force()
	<-f.st.done
	return f.st.val, f.st.err
}

// GetCtx is Get with a bounded wait: it returns the value once
// delivered, or the context's error if ctx is done first (the
// producing task keeps running; cancellation bounds the wait, not the
// work). A deferred future is forced on the calling goroutine, as
// with Get, unless ctx is already done.
func (f *Future[T]) GetCtx(ctx context.Context) (T, error) {
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	f.force()
	select {
	case <-f.st.done:
		return f.st.val, f.st.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// waitReady blocks until a value or error has been delivered, without
// forcing a deferred future (used by WhenAny, which must not execute
// deferred work on behalf of the caller).
func (f *Future[T]) waitReady() (T, error) {
	<-f.st.done
	return f.st.val, f.st.err
}

// Ready reports whether a value or error has been delivered. A
// deferred future is never ready until Get forces it.
func (f *Future[T]) Ready() bool {
	select {
	case <-f.st.done:
		return true
	default:
		return false
	}
}

// WaitFor blocks up to d for the result and reports whether it became
// available — std::future::wait_for. It does not force a deferred
// future.
func (f *Future[T]) WaitFor(d time.Duration) bool {
	if f.Ready() {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-f.st.done:
		return true
	case <-timer.C:
		return false
	}
}
