// Package loadgen is an open-loop load generator for the service
// scenario: arrivals follow a Poisson process at a configured offered
// load, and every arrival issues its request immediately regardless
// of how many are still outstanding. That distinction — open loop, as
// in pSTL-Bench-style methodology, versus the closed request-per-
// worker loop most microbenchmarks run — is what makes tail latency
// honest: a closed loop slows its own arrival rate exactly when the
// system under test stalls (coordinated omission), while an open loop
// keeps offering work and measures the queueing the stall caused.
//
// Latency is measured from each arrival's due instant on the
// schedule, not from the moment its request started: when the target
// (or the generator itself) stalls, the arrivals that fell due during
// the stall are charged the time they waited to be issued.
//
// The generator drives an http.Handler in process — request and
// response never touch a socket, so the measured latency is admission
// + scheduling + kernel execution.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Config is one measurement point.
type Config struct {
	Handler http.Handler
	// Path is the request path, e.g. "/run?kernel=sum".
	Path string
	// Offered is the arrival rate in requests per second.
	Offered float64
	// Requests is the number of arrivals to generate.
	Requests int
	// Warmup arrivals at the front are issued but excluded from every
	// counter and latency except Sent.
	Warmup int
	// Seed drives the deterministic Poisson arrival schedule.
	Seed uint64
}

// Result is one point's outcome. Latencies cover completed-OK
// requests only; shed (429) and deadline (504) requests are counted
// separately — folding a 429's sub-millisecond turnaround into the
// latency distribution would make an overloaded server look fast.
type Result struct {
	Offered   float64
	Sent      int
	OK        int
	Shed      int
	Timeouts  int
	Errors    int
	LatencyNs []int64
	// Elapsed spans the measured window (due instant of the first
	// post-warmup arrival to last completion).
	Elapsed time.Duration
	// Interrupted reports that ctx canceled the run; counts and
	// latencies cover what completed — a partial but valid point.
	Interrupted bool
}

// Goodput is completed-OK requests per second over the measured
// window.
func (r Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// ShedRate is the shed fraction of measured arrivals.
func (r Result) ShedRate() float64 {
	n := r.OK + r.Shed + r.Timeouts + r.Errors
	if n == 0 {
		return 0
	}
	return float64(r.Shed) / float64(n)
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// expInterval draws an exponential inter-arrival time for rate
// arrivals/second — a Poisson arrival process.
func expInterval(state *uint64, rate float64) time.Duration {
	u := float64(splitmix64(state)>>11) / (1 << 53) // uniform [0, 1)
	return time.Duration(-math.Log(1-u) / rate * float64(time.Second))
}

// spinLead is how far before a due instant the dispatcher stops
// sleeping and starts yielding. A timer or time.Sleep is no use here:
// an otherwise idle Go process sleeps in epoll_wait, whose timeout is
// in whole milliseconds, so it overshoots by 0.6-1.1 ms — several
// times the cost of a small request. nanosleep(2) overshoots by
// 0.06-0.2 ms (timer slack plus wake-up), so the dispatcher sleeps
// there until spinLead before the due instant and yields the rest of
// the way. The yield window is kept short because a goroutine that is
// always runnable keeps its P from ever stealing: it would serialise
// the very requests being measured.
const spinLead = 200 * time.Microsecond

// waitUntil blocks until due, or until ctx is done, in which case it
// reports false. Cancellation is observed between sleeps, so within
// one inter-arrival gap.
func waitUntil(ctx context.Context, due time.Time) bool {
	for {
		if ctx.Err() != nil {
			return false
		}
		wait := time.Until(due)
		switch {
		case wait <= 0:
			return true
		case wait > spinLead:
			ts := syscall.NsecToTimespec(int64(wait - spinLead))
			_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) is handled by the loop
		default:
			runtime.Gosched()
		}
	}
}

// arrival is one scheduled request: the point it belongs to, its
// index within that point, and its due offset from the start.
type arrival struct {
	point, seq int
	due        time.Duration
}

// schedule merges the points' Poisson schedules into one timeline.
// Each point's schedule is absolute — every due offset is the sum of
// exponential gaps from the start — so a slow target cannot push later
// arrivals back: the open-loop property.
func schedule(points []Config) []arrival {
	var out []arrival
	for p, cfg := range points {
		state := cfg.Seed
		var due time.Duration
		for i := 0; i < cfg.Requests; i++ {
			due += expInterval(&state, cfg.Offered)
			out = append(out, arrival{point: p, seq: i, due: due})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// Run drives one or more points over the same wall-clock window and
// blocks until every issued request has completed; it returns one
// Result per point, in order. Each latency runs from the arrival's
// due instant to its completion.
//
// A single dispatcher issues every point's arrivals. That matters for
// concurrent points: the dispatcher sleeps in nanosleep(2), and a
// goroutine in a system call keeps its P until the runtime's monitor
// retakes it, which can take up to 10 ms — one dispatcher per point
// would leave a two-P machine with no P to run the requests on.
//
// Canceling ctx stops new arrivals, lets the in-flight requests finish
// (their own deadlines bound the wait), and returns the partial
// Results with Interrupted set and ctx's error.
func Run(ctx context.Context, points ...Config) ([]Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("loadgen: no points to run")
	}
	for _, cfg := range points {
		if cfg.Handler == nil || cfg.Offered <= 0 || cfg.Requests <= 0 {
			return nil, fmt.Errorf("loadgen: config needs a handler, offered > 0, requests > 0 (got %+v)", cfg)
		}
	}
	res := make([]Result, len(points))
	// window spans each point's measured arrivals: the due instant of
	// the first post-warmup arrival to the last completion.
	window := make([]struct{ start, last time.Time }, len(points))
	var (
		mu          sync.Mutex
		wg          sync.WaitGroup
		interrupted bool
	)
	begin := time.Now()
	for p := range points {
		res[p].Offered = points[p].Offered
		window[p].start = begin
	}

	for _, a := range schedule(points) {
		due := begin.Add(a.due)
		if !waitUntil(ctx, due) {
			interrupted = true
			break
		}
		cfg, r, w := points[a.point], &res[a.point], &window[a.point]
		if a.seq == cfg.Warmup {
			w.start = due
		}
		r.Sent++
		measured := a.seq >= cfg.Warmup
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, cfg.Path, nil).WithContext(ctx)
			rec := httptest.NewRecorder()
			cfg.Handler.ServeHTTP(rec, req)
			done := time.Now()
			if !measured {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if done.After(w.last) {
				w.last = done
			}
			switch rec.Code {
			case http.StatusOK:
				r.OK++
				r.LatencyNs = append(r.LatencyNs, done.Sub(due).Nanoseconds())
			case http.StatusTooManyRequests:
				r.Shed++
			case http.StatusGatewayTimeout:
				r.Timeouts++
			default:
				r.Errors++
			}
		}()
		// Let the request start now, on this P, rather than sit in its
		// run queue while the dispatcher sleeps in nanosleep.
		runtime.Gosched()
	}
	wg.Wait()
	end := time.Now()
	for p := range res {
		if window[p].last.IsZero() {
			window[p].last = end
		}
		res[p].Elapsed = window[p].last.Sub(window[p].start)
		res[p].Interrupted = interrupted
	}
	if interrupted {
		return res, context.Cause(ctx)
	}
	return res, nil
}
