package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The benchmark's own open-loop driver. Arrivals follow an absolute,
// seeded Poisson schedule; one dispatcher goroutine sleeps until each
// arrival is due and starts one goroutine for it, whatever is still
// outstanding. Latency runs from the instant the arrival was *due*,
// so a stall charges every arrival it delayed, and how late each
// arrival actually started is recorded beside it.

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the slice start
	kind int           // index into the workload's kinds
}

// makeSchedule draws the Poisson arrivals of one slice of length d at
// rate per second, and each arrival's kind from the mix shares. The
// same seed gives the same schedule.
func makeSchedule(seed uint64, rate float64, d time.Duration, kinds []opKind) []arrival {
	r := rng(seed)
	var out []arrival
	for t := 0.0; ; {
		t += -math.Log(1-r.unit()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		u, kind := r.unit(), len(kinds)-1
		for k, c := 0, 0.0; k < len(kinds); k++ {
			if c += kinds[k].share; u < c {
				kind = k
				break
			}
		}
		out = append(out, arrival{due, kind})
	}
}

// reply is the part of the server's JSON body the benchmark reads.
type reply struct {
	Result float64 `json:"result"`
	NS     int64   `json:"ns"`
}

// recorder is a minimal in-process http.ResponseWriter.
type recorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// getJSON issues one in-process GET and decodes a 200's body into v.
func getJSON(h http.Handler, url string, v any) (code int, err error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	rec := &recorder{code: http.StatusOK, hdr: make(http.Header)}
	h.ServeHTTP(rec, req)
	if rec.code == http.StatusOK {
		err = json.Unmarshal(rec.body.Bytes(), v)
	}
	return rec.code, err
}

func get(h http.Handler, url string) (code int, rep reply, err error) {
	code, err = getJSON(h, url, &rep)
	return code, rep, err
}

// serveURLs are the request of each kind, in serveKinds order.
var serveURLs = []string{
	"/run?kernel=sum", "/run?kernel=axpy", "/run?kernel=matvec",
	"/run?kernel=pathfinder", "/fanout?ways=4",
}

// outcome is what one arrival observed.
type outcome struct {
	start, end time.Time // goroutine start and response decoded
	code       int
	rep        reply
	err        error
}

// serveRefs are the per-kind results and handler times of a 1-thread
// server, taken once per set-up.
type serveRefs struct {
	result []float64
	seqUS  []float64
}

type serveSeries struct {
	fam     string
	h       server
	metrics bool // built with the server's telemetry on
	rate    float64
	refs    *serveRefs
	ideal   []float64
}

// check classifies one response: "" when it is a 200 with the
// reference result.
func (s *serveSeries) check(kind int, o outcome) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.code != http.StatusOK:
		return fmt.Sprintf("HTTP %d", o.code)
	case !closeTo(o.rep.Result, s.refs.result[kind]):
		return fmt.Sprintf("result %v, want %v", o.rep.Result, s.refs.result[kind])
	}
	return ""
}

func (s *serveSeries) warm() error {
	for i := 0; i < serveWarmReqs; i++ {
		kind := i % len(serveURLs)
		var o outcome
		o.code, o.rep, o.err = get(s.h, serveURLs[kind])
		if wrong := s.check(kind, o); wrong != "" {
			return fmt.Errorf("%s warm-up %s: %s", s.fam, serveURLs[kind], wrong)
		}
	}
	return nil
}

// The dispatcher waits for a due instant in two steps. time.Sleep is
// no use: an otherwise idle Go process sleeps in epoll_wait, whose
// timeout is in whole milliseconds, so it overshoots by 0.6-1.1 ms —
// several times the cost of a small request. nanosleep(2) overshoots
// by 0.06-0.2 ms (timer slack plus wake-up), so the dispatcher sleeps
// there until spinLead before the due instant and yields the rest of
// the way. The yield loop is kept short because a goroutine that is
// always runnable keeps its P from ever stealing: it would serialise
// the very regions being measured.
const spinLead = 200 * time.Microsecond

func waitUntil(due time.Time) {
	for {
		wait := time.Until(due)
		switch {
		case wait <= 0:
			return
		case wait > spinLead:
			ts := syscall.NsecToTimespec(int64(wait - spinLead))
			_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) is handled by the loop
		default:
			runtime.Gosched()
		}
	}
}

// fire runs the open loop over one schedule and returns what each
// arrival observed and the instant the slice started.
func fire(h http.Handler, sched []arrival) ([]outcome, time.Time) {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	wg.Add(len(sched))
	begin := time.Now()
	for i, a := range sched {
		waitUntil(begin.Add(a.due))
		go func() {
			defer wg.Done()
			o := &out[i]
			o.start = time.Now()
			o.code, o.rep, o.err = get(h, serveURLs[a.kind])
			o.end = time.Now()
		}()
		// Let the request start now, on this P, rather than sit in its
		// run queue while the dispatcher blocks in nanosleep.
		runtime.Gosched()
	}
	wg.Wait()
	return out, begin
}

func (s *serveSeries) run(d time.Duration, roundSeed uint64, log *spanLog) roundSamples {
	sched := makeSchedule(roundSeed, s.rate, d, serveKinds)
	out, begin := fire(s.h, sched)

	rs := roundSamples{byKind: make([][]float64, len(serveKinds)), attempted: len(sched)}
	var last time.Time
	for i, a := range sched {
		o, due := out[i], begin.Add(a.due)
		if o.end.After(last) {
			last = o.end
		}
		rs.lateUS = append(rs.lateUS, float64(o.start.Sub(due).Nanoseconds())/1e3)
		if wrong := s.check(a.kind, o); wrong != "" {
			rs.fail("%s %s: %s", s.fam, serveURLs[a.kind], wrong)
			continue
		}
		lat := o.end.Sub(due)
		if lat <= serveLimit {
			rs.good++
		}
		handler := time.Duration(o.rep.NS)
		rs.byKind[a.kind] = append(rs.byKind[a.kind], float64(lat.Nanoseconds())/1e3)
		rs.envUS = append(rs.envUS, float64((o.end.Sub(o.start)-handler).Nanoseconds())/1e3)
		if log != nil {
			// The handler reports its duration, not its position; it is
			// centred in the request so the envelope's self time is
			// exact and split evenly before and after.
			hs := o.start.Add((o.end.Sub(o.start) - handler) / 2)
			log.chain(s.fam, serveKinds[a.kind].name,
				[]string{spanOp, spanRequest, spanHandler, spanBody},
				[]time.Time{due, o.start, hs, hs},
				[]time.Time{o.end, o.end, hs.Add(handler), hs.Add(time.Duration(s.ideal[a.kind] * 1e3))})
		}
	}
	if len(sched) > 0 {
		rs.wall = last.Sub(begin.Add(sched[0].due))
	}
	rs.busy = outstanding(out)
	return rs
}

// outstanding returns how long at least one request was between its
// start and its end: the server's busy time as a client sees it. It
// sorts out by start.
func outstanding(out []outcome) (busy time.Duration) {
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	var edge time.Time
	for _, o := range out {
		if o.end.After(edge) {
			from := o.start
			if edge.After(from) {
				from = edge
			}
			busy += o.end.Sub(from)
			edge = o.end
		}
	}
	return busy
}

// counts reads the server's scheduler counters from /metrics, which
// exists only on a server built with telemetry on; the thread family
// exports the series but never moves them.
func (s *serveSeries) counts() (counts, bool) {
	if !s.metrics || s.fam == "thread" {
		return counts{}, false
	}
	var m map[string]float64
	if code, err := getJSON(s.h, "/metrics?format=json", &m); err != nil || code != http.StatusOK {
		return counts{}, false
	}
	field := func(name string) int64 {
		return int64(m[`threadserve_sched_total{counter="`+name+`"}`])
	}
	return counts{
		Units:        field("loop-chunks") + field("tasks"),
		Spawns:       field("spawns"),
		Steals:       field("steals"),
		FailedSteals: field("failed-steals"),
		Parks:        field("parks"),
	}, true
}

// statz is the part of the server's /statz body the benchmark reads.
type statz struct {
	PeakDepth int64 `json:"peak_depth"`
	Shed      int64 `json:"shed"`
	Timeouts  int64 `json:"timeouts"`
}

func (s *serveSeries) statz(resetPeak bool) (statz, error) {
	url := "/statz"
	if resetPeak {
		url += "?reset-peak=1"
	}
	var st statz
	code, err := getJSON(s.h, url, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d", url, code)
	}
	return st, err
}

func (s *serveSeries) close() { s.h.Close() }

// takeServeRefs asks a 1-thread server for each kind's result and
// handler time (median of 5 after one discarded request).
func takeServeRefs() (*serveRefs, error) {
	h, err := newServer(serverConfig{Model: families[0].loop, Threads: 1, Queue: serveQueue, WorkSize: serveWorkSize})
	if err != nil {
		return nil, err
	}
	defer h.Close()
	refs := &serveRefs{}
	for _, url := range serveURLs {
		var ns []float64
		var result float64
		for i := 0; i < 6; i++ {
			code, rep, err := get(h, url)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("reference %s: HTTP %d, %v", url, code, err)
			}
			if i > 0 {
				ns = append(ns, float64(rep.NS)/1e3)
			}
			result = rep.Result
		}
		refs.result = append(refs.result, result)
		refs.seqUS = append(refs.seqUS, percentile(ns, 0.5))
	}
	return refs, nil
}

// buildServe sets up one server per family. queue is the admission
// bound (0 = the server's default); metrics turns the server's
// telemetry layer on.
func buildServe(threads int, rate float64, queue int, metrics bool) (*instance, error) {
	refs, err := takeServeRefs()
	if err != nil {
		return nil, err
	}
	inst := &instance{seqUS: refs.seqUS}
	ideal := make([]float64, len(refs.seqUS))
	for k, us := range refs.seqUS {
		ideal[k] = us / float64(threads)
	}
	for i, f := range families {
		h, err := newServer(serverConfig{Model: f.loop, Threads: threads, Queue: queue, WorkSize: serveWorkSize, Metrics: metrics})
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.series[i] = &serveSeries{fam: f.name, h: h, metrics: metrics, rate: rate, refs: refs, ideal: ideal}
	}
	return inst, nil
}
