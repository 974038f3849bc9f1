package futures

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestThreadRunsAndJoins(t *testing.T) {
	var ran atomic.Bool
	th := NewThread(func() { ran.Store(true) })
	th.Join()
	if !ran.Load() {
		t.Fatal("thread body did not run before Join returned")
	}
	if th.Joinable() {
		t.Fatal("thread still joinable after Join")
	}
}

func TestThreadJoinTwicePanics(t *testing.T) {
	th := NewThread(func() {})
	th.Join()
	defer func() {
		if recover() == nil {
			t.Fatal("second Join did not panic")
		}
	}()
	th.Join()
}

func TestThreadDetach(t *testing.T) {
	done := make(chan struct{})
	th := NewThread(func() { close(done) })
	th.Detach()
	if th.Joinable() {
		t.Fatal("detached thread reports joinable")
	}
	<-done
	defer func() {
		if recover() == nil {
			t.Fatal("Join after Detach did not panic")
		}
	}()
	th.Join()
}

func TestThreadPanicPropagatesToJoiner(t *testing.T) {
	th := NewThread(func() { panic("inside") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Join did not re-panic")
		}
		if !strings.Contains(r.(string), "inside") {
			t.Fatalf("panic %q lost the message", r)
		}
	}()
	th.Join()
}

func TestManyThreadsJoin(t *testing.T) {
	const n = 64
	var sum atomic.Int64
	threads := make([]*Thread, n)
	for i := 0; i < n; i++ {
		i := i
		threads[i] = NewThread(func() { sum.Add(int64(i)) })
	}
	for _, th := range threads {
		th.Join()
	}
	if sum.Load() != n*(n-1)/2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), n*(n-1)/2)
	}
}

func TestPromiseFuture(t *testing.T) {
	p := NewPromise[int]()
	f := p.Future()
	if f.Ready() {
		t.Fatal("future ready before Set")
	}
	go p.Set(42)
	v, err := f.Get()
	if err != nil || v != 42 {
		t.Fatalf("Get = (%d, %v), want (42, nil)", v, err)
	}
	if !f.Ready() {
		t.Fatal("future not ready after Get")
	}
	// Get is idempotent (shared-future style).
	if v, _ := f.Get(); v != 42 {
		t.Fatal("second Get lost the value")
	}
}

func TestPromiseSetError(t *testing.T) {
	p := NewPromise[string]()
	want := errors.New("nope")
	p.SetError(want)
	_, err := p.Future().Get()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestPromiseDoubleSetPanics(t *testing.T) {
	p := NewPromise[int]()
	p.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Set did not panic")
		}
	}()
	p.Set(2)
}

func TestAsyncPolicyAsync(t *testing.T) {
	f := Async(LaunchAsync, func() (int, error) { return 7, nil })
	v, err := f.Get()
	if err != nil || v != 7 {
		t.Fatalf("Get = (%d, %v), want (7, nil)", v, err)
	}
}

func TestAsyncDeferredRunsOnGetter(t *testing.T) {
	var ran atomic.Bool
	f := Async(LaunchDeferred, func() (int, error) { ran.Store(true); return 3, nil })
	time.Sleep(2 * time.Millisecond)
	if ran.Load() {
		t.Fatal("deferred function ran before Get")
	}
	if f.Ready() {
		t.Fatal("deferred future claims ready before Get")
	}
	v, err := f.Get()
	if err != nil || v != 3 || !ran.Load() {
		t.Fatalf("Get = (%d, %v), ran=%v", v, err, ran.Load())
	}
	// Second Get must not re-run the function.
	if v, _ := f.Get(); v != 3 {
		t.Fatal("second Get broke")
	}
}

func TestAsyncError(t *testing.T) {
	want := errors.New("bad")
	f := Async(LaunchAsync, func() (int, error) { return 0, want })
	if _, err := f.Get(); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestAsyncPanicBecomesError(t *testing.T) {
	for _, pol := range []Policy{LaunchAsync, LaunchDeferred} {
		f := Async(pol, func() (int, error) { panic("ouch") })
		_, err := f.Get()
		if err == nil || !strings.Contains(err.Error(), "ouch") {
			t.Fatalf("policy %v: err = %v, want panic-derived error", pol, err)
		}
	}
}

func TestWaitFor(t *testing.T) {
	p := NewPromise[int]()
	f := p.Future()
	if f.WaitFor(2 * time.Millisecond) {
		t.Fatal("WaitFor succeeded with no value")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		p.Set(1)
	}()
	if !f.WaitFor(5 * time.Second) {
		t.Fatal("WaitFor timed out despite Set")
	}
}

func TestPolicyString(t *testing.T) {
	if LaunchAsync.String() != "async" || LaunchDeferred.String() != "deferred" ||
		Policy(5).String() != "unknown" {
		t.Error("Policy.String values wrong")
	}
}

// TestAsyncFanOut checks that a batch of async tasks all deliver —
// the manual-chunking pattern the C++11 loop versions use.
func TestAsyncFanOut(t *testing.T) {
	check := func(n8 uint8) bool {
		n := int(n8%32) + 1
		fs := make([]*Future[int], n)
		for i := 0; i < n; i++ {
			i := i
			fs[i] = Async(LaunchAsync, func() (int, error) { return i * i, nil })
		}
		for i, f := range fs {
			v, err := f.Get()
			if err != nil || v != i*i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
