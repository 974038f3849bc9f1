package loadgen

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// statusHandler answers every request with a fixed status after an
// optional service time, tracking peak concurrency.
type statusHandler struct {
	status int
	delay  time.Duration
	inFl   atomic.Int64
	peak   atomic.Int64
}

func (h *statusHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d := h.inFl.Add(1)
	defer h.inFl.Add(-1)
	for {
		p := h.peak.Load()
		if d <= p || h.peak.CompareAndSwap(p, d) {
			break
		}
	}
	if h.delay > 0 {
		select {
		case <-time.After(h.delay):
		case <-r.Context().Done():
			w.WriteHeader(http.StatusGatewayTimeout)
			return
		}
	}
	w.WriteHeader(h.status)
}

// run drives a single point.
func run(ctx context.Context, cfg Config) (Result, error) {
	rs, err := Run(ctx, cfg)
	if rs == nil {
		return Result{}, err
	}
	return rs[0], err
}

func TestRunCountsByStatus(t *testing.T) {
	cases := []struct {
		status int
		check  func(Result) bool
	}{
		{http.StatusOK, func(r Result) bool { return r.OK == 20 && len(r.LatencyNs) == 20 }},
		{http.StatusTooManyRequests, func(r Result) bool { return r.Shed == 20 && len(r.LatencyNs) == 0 }},
		{http.StatusGatewayTimeout, func(r Result) bool { return r.Timeouts == 20 }},
		{http.StatusInternalServerError, func(r Result) bool { return r.Errors == 20 }},
	}
	for _, c := range cases {
		res, err := run(context.Background(), Config{
			Handler: &statusHandler{status: c.status}, Path: "/x",
			Offered: 5000, Requests: 20, Seed: 1,
		})
		if err != nil {
			t.Fatalf("status %d: %v", c.status, err)
		}
		if res.Sent != 20 || !c.check(res) {
			t.Fatalf("status %d: %+v", c.status, res)
		}
	}
}

// TestOpenLoopDoesNotSerialize is the generator's defining property:
// with a 30ms service time and arrivals every ~2ms, requests must
// overlap — a closed loop would take 20*30ms = 600ms, the open loop
// roughly 20*2ms + 30ms.
func TestOpenLoopDoesNotSerialize(t *testing.T) {
	h := &statusHandler{status: http.StatusOK, delay: 30 * time.Millisecond}
	start := time.Now()
	res, err := run(context.Background(), Config{
		Handler: h, Path: "/x", Offered: 500, Requests: 20, Seed: 1,
	})
	if err != nil || res.OK != 20 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	if el := time.Since(start); el > 400*time.Millisecond {
		t.Fatalf("arrivals serialized: 20 reqs took %v", el)
	}
	if p := h.peak.Load(); p < 2 {
		t.Fatalf("peak concurrency = %d, want >= 2 (open loop overlaps)", p)
	}
}

// TestStalledTargetChargesDelayedArrivals pins due-instant timing. On
// one P, the first request busy-spins for 20 ms; the other 19
// arrivals fall due (at 2000/s, about 10 ms in all) while it holds the
// processor, so none of them can even be issued until the stall
// yields. Each must be charged that wait. A generator that starts the
// clock when the request goroutine starts reads the delayed requests
// as taking well under a microsecond and hides the stall.
func TestStalledTargetChargesDelayedArrivals(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const stall = 20 * time.Millisecond
	var first atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			for start := time.Now(); time.Since(start) < stall; {
			}
		}
	})
	res, err := run(context.Background(), Config{
		Handler: h, Path: "/x", Offered: 2000, Requests: 20, Seed: 1,
	})
	if err != nil || res.OK != 20 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	var charged int
	for _, ns := range res.LatencyNs {
		if time.Duration(ns) >= time.Millisecond {
			charged++
		}
	}
	if charged < 15 {
		t.Fatalf("only %d of 20 latencies >= 1ms behind a %v stall: %v", charged, stall, res.LatencyNs)
	}
}

// Concurrent points share one window: each is measured against its own
// handler with its own schedule and warm-up, and both overlap in time.
func TestRunConcurrentPoints(t *testing.T) {
	a := &statusHandler{status: http.StatusOK, delay: 5 * time.Millisecond}
	var overlapped atomic.Bool
	b := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.inFl.Load() > 0 {
			overlapped.Store(true)
		}
		w.WriteHeader(http.StatusTooManyRequests)
	})
	rs, err := Run(context.Background(),
		Config{Handler: a, Path: "/a", Offered: 1000, Requests: 40, Warmup: 4, Seed: 1},
		Config{Handler: b, Path: "/b", Offered: 1000, Requests: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Sent != 40 || rs[0].OK != 36 || rs[1].Sent != 40 || rs[1].Shed != 40 {
		t.Fatalf("per-point results mixed up: %+v", rs)
	}
	if !overlapped.Load() {
		t.Error("no request of the second point ran while the first point had one in flight")
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	res, err := run(context.Background(), Config{
		Handler: &statusHandler{status: http.StatusOK}, Path: "/x",
		Offered: 5000, Requests: 30, Warmup: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 30 || res.OK != 20 || len(res.LatencyNs) != 20 {
		t.Fatalf("warmup not excluded: %+v", res)
	}
}

func TestRunDeterministicSchedule(t *testing.T) {
	st1, st2 := uint64(7), uint64(7)
	for i := 0; i < 100; i++ {
		if a, b := expInterval(&st1, 100), expInterval(&st2, 100); a != b {
			t.Fatalf("draw %d: %v != %v", i, a, b)
		}
	}
	// Mean inter-arrival ~ 1/rate: 10k draws at rate 100 ≈ 10ms mean.
	st := uint64(3)
	var sum time.Duration
	for i := 0; i < 10000; i++ {
		sum += expInterval(&st, 100)
	}
	mean := sum / 10000
	if mean < 8*time.Millisecond || mean > 12*time.Millisecond {
		t.Fatalf("mean inter-arrival %v, want ~10ms", mean)
	}
}

func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	h := &statusHandler{status: http.StatusOK}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	// 10 req/s: the run would take ~1s; cancellation cuts it short.
	res, err := run(ctx, Config{Handler: h, Path: "/x", Offered: 10, Requests: 10, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if !res.Interrupted {
		t.Fatal("Interrupted not set")
	}
	if res.Sent >= 10 {
		t.Fatalf("sent %d, want fewer than all", res.Sent)
	}
	// Whatever was issued completed and was classified.
	if got := res.OK + res.Shed + res.Timeouts + res.Errors; got != res.Sent {
		t.Fatalf("classified %d != sent %d", got, res.Sent)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background()); err == nil {
		t.Fatal("no points accepted")
	}
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	ok := Config{Handler: &statusHandler{status: http.StatusOK}, Offered: 100, Requests: 5}
	if _, err := Run(context.Background(), ok, Config{Handler: &statusHandler{}, Offered: -1, Requests: 5}); err == nil {
		t.Fatal("negative offered accepted")
	}
}

func TestResultDerived(t *testing.T) {
	r := Result{OK: 50, Shed: 25, Timeouts: 15, Errors: 10, Elapsed: 2 * time.Second}
	if g := r.Goodput(); g != 25 {
		t.Fatalf("Goodput = %g, want 25", g)
	}
	if s := r.ShedRate(); s != 0.25 {
		t.Fatalf("ShedRate = %g, want 0.25", s)
	}
	if (Result{}).Goodput() != 0 || (Result{}).ShedRate() != 0 {
		t.Fatal("zero result not zero-safe")
	}
}
