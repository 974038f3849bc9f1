package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"
)

// closedLoop drives one caller through the workload's operation kinds
// in strict alternation for about d: the next operation starts only
// when the previous one has returned and been checked. do runs
// operation number i of the given kind and returns the interval of the
// call into the program and a description of what was wrong, if
// anything. idealUS is the per-kind sequential time over the thread
// count, used only for the body.ideal span.
func closedLoop(d time.Duration, fam string, kinds []opKind, idealUS []float64, log *spanLog,
	do func(kind, i int) (t0, t1 time.Time, wrong string)) roundSamples {

	rs := roundSamples{byKind: make([][]float64, len(kinds))}
	deadline := time.Now().Add(d)
	for i := 0; rs.attempted == 0 || time.Now().Before(deadline); i++ {
		for kind := range kinds {
			t0, t1, wrong := do(kind, i)
			rs.attempted++
			if wrong != "" {
				rs.fail("%s %s op %d: %s", fam, kinds[kind].name, i, wrong)
				continue
			}
			rs.good++
			rs.busy += t1.Sub(t0)
			rs.byKind[kind] = append(rs.byKind[kind], float64(t1.Sub(t0).Nanoseconds())/1e3)
			if log != nil {
				body := t0.Add(time.Duration(idealUS[kind] * 1e3))
				log.chain(fam, kinds[kind].name,
					[]string{spanOp, spanRegion, spanBody},
					[]time.Time{t0, t0, t0}, []time.Time{t1, t1, body})
			}
		}
	}
	return rs
}

// closeTo reports whether a reduction result matches its sequential
// reference to a relative 1e-9: parallel partial sums differ from the
// sequential order only in the last few bits.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
}

// loopInputs are shared by the three families of a loops workload;
// series run one at a time, so out is never written concurrently.
type loopInputs struct {
	n, grain  int
	x, y, out []float64
	refSum    float64
}

func sumBody(x []float64) func(l, h int, acc float64) float64 {
	return func(l, h int, acc float64) float64 {
		for _, v := range x[l:h] {
			acc += v
		}
		return acc
	}
}

func add(a, b float64) float64 { return a + b }

func axpyBody(a float64, x, y, out []float64) func(l, h int) {
	return func(l, h int) {
		xs, ys, os := x[l:h], y[l:h], out[l:h]
		for i := range os {
			os[i] = a*xs[i] + ys[i]
		}
	}
}

// axpyCoef varies the coefficient per operation, so a chunk the
// runtime skipped leaves a stale value that the check sees.
func axpyCoef(i int) float64 { return 1.5 + 0.25*float64(i%8) }

// checkAxpy verifies out = a*x + y at probes evenly spread positions
// (all of them when probes >= n). shift moves the probes, so that
// successive operations cover different chunks.
func (in *loopInputs) checkAxpy(a float64, probes, shift int) string {
	step := max(in.n/probes, 1)
	for j := shift % step; j < in.n; j += step {
		if want := a*in.x[j] + in.y[j]; in.out[j] != want {
			return fmt.Sprintf("axpy out[%d] = %v, want %v", j, in.out[j], want)
		}
	}
	return ""
}

type loopSeries struct {
	fam     string
	ex      executor
	in      *loopInputs
	ideal   []float64
	warmOps int
}

func (s *loopSeries) do(kind, i int) (t0, t1 time.Time, wrong string) {
	ctx, in := context.Background(), s.in
	if kind == 0 {
		body := sumBody(in.x)
		t0 = time.Now()
		got, err := s.ex.ParallelReduceCtx(ctx, 0, in.n, in.grain, 0, body, add)
		t1 = time.Now()
		if err != nil {
			return t0, t1, err.Error()
		}
		if !closeTo(got, in.refSum) {
			return t0, t1, fmt.Sprintf("sum = %v, want %v", got, in.refSum)
		}
		return t0, t1, ""
	}
	a := axpyCoef(i)
	body := axpyBody(a, in.x, in.y, in.out)
	t0 = time.Now()
	err := s.ex.ParallelForCtx(ctx, 0, in.n, in.grain, body)
	t1 = time.Now()
	if err != nil {
		return t0, t1, err.Error()
	}
	// Every operation is probed at 256 positions; the last one of a
	// slice is verified in full by run.
	return t0, t1, in.checkAxpy(a, 256, i*7919)
}

func (s *loopSeries) warm() error {
	for i := 0; i < s.warmOps/2; i++ {
		for kind := range loopKinds {
			if _, _, wrong := s.do(kind, i); wrong != "" {
				return fmt.Errorf("%s warm-up: %s", s.fam, wrong)
			}
		}
	}
	return nil
}

func (s *loopSeries) run(d time.Duration, _ uint64, log *spanLog) roundSamples {
	last := 0
	rs := closedLoop(d, s.fam, loopKinds, s.ideal, log, func(kind, i int) (time.Time, time.Time, string) {
		last = i
		return s.do(kind, i)
	})
	if wrong := s.in.checkAxpy(axpyCoef(last), s.in.n, 0); wrong != "" {
		rs.fail("%s full check: %s", s.fam, wrong)
	}
	return rs
}

func (s *loopSeries) counts() (counts, bool) { return readCounts(s.ex) }
func (s *loopSeries) close()                 { s.ex.Close() }

// timeSeq returns the median time of reps calls of fn, microseconds,
// after one discarded call that takes the page faults of fresh memory.
func timeSeq(reps int, fn func()) float64 {
	fn()
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return percentile(ts, 0.5)
}

func buildLoops(seed uint64, threads, n, grain, warmOps int) (*instance, error) {
	in := &loopInputs{n: n, grain: grain,
		x: make([]float64, n), y: make([]float64, n), out: make([]float64, n)}
	r := rng(seed)
	for i := range in.x {
		in.x[i] = r.unit()
		in.y[i] = r.unit() - 0.5
	}
	// Sequential references: the results every operation is checked
	// against, and the body times behind body.ideal and speedup.
	sum, axpy := sumBody(in.x), axpyBody(axpyCoef(0), in.x, in.y, in.out)
	inst := &instance{seqUS: []float64{
		timeSeq(9, func() { in.refSum = sum(0, n, 0) }),
		timeSeq(9, func() { axpy(0, n) }),
	}}
	ideal := []float64{inst.seqUS[0] / float64(threads), inst.seqUS[1] / float64(threads)}
	for i, f := range families {
		ex, err := newExecutor(f.loop, threads, plain)
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.series[i] = &loopSeries{fam: f.name, ex: ex, in: in, ideal: ideal, warmOps: warmOps}
	}
	return inst, nil
}

// Task trees. Both bodies are the benchmark's own: fib is the
// paper's recursive-spawn stress (Fig. 5), mergesort a tree whose
// tasks carry real memory traffic.

func fibSeq(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func fibTree(s taskScope, n, cutoff int, out *int64) {
	if n <= cutoff {
		*out = fibSeq(n)
		return
	}
	var a, b int64
	s.Spawn(func(c taskScope) { fibTree(c, n-1, cutoff, &a) })
	fibTree(s, n-2, cutoff, &b)
	s.Sync()
	*out = a + b
}

// sortTree sorts a in place, using tmp (same length) for merges. Both
// halves are spawned, so each has a scope of its own and a Sync waits
// for exactly the two sorts its merge needs. s is nil for the
// sequential reference.
func sortTree(s taskScope, a, tmp []int64, cutoff int) {
	if len(a) <= cutoff {
		slices.Sort(a)
		return
	}
	mid := len(a) / 2
	if s == nil {
		sortTree(nil, a[:mid], tmp[:mid], cutoff)
		sortTree(nil, a[mid:], tmp[mid:], cutoff)
	} else {
		s.Spawn(func(c taskScope) { sortTree(c, a[:mid], tmp[:mid], cutoff) })
		s.Spawn(func(c taskScope) { sortTree(c, a[mid:], tmp[mid:], cutoff) })
		s.Sync()
	}
	l, r, k := a[:mid], a[mid:], 0
	for len(l) > 0 && len(r) > 0 {
		if l[0] <= r[0] {
			tmp[k], l = l[0], l[1:]
		} else {
			tmp[k], r = r[0], r[1:]
		}
		k++
	}
	k += copy(tmp[k:], l)
	copy(tmp[k:], r)
	copy(a, tmp)
}

type taskInputs struct {
	fibRef      int64
	src, sorted []int64 // unsorted input and its reference order
	buf, tmp    []int64
}

type taskSeries struct {
	fam   string
	m     taskRunner
	in    *taskInputs
	ideal []float64
}

func (s *taskSeries) do(kind, _ int) (t0, t1 time.Time, wrong string) {
	ctx, in := context.Background(), s.in
	if kind == 0 {
		var got int64
		t0 = time.Now()
		err := s.m.TaskRunCtx(ctx, func(sc taskScope) { fibTree(sc, fibN, fibCutoff, &got) })
		t1 = time.Now()
		if err != nil {
			return t0, t1, err.Error()
		}
		if got != in.fibRef {
			return t0, t1, fmt.Sprintf("fib(%d) = %d, want %d", fibN, got, in.fibRef)
		}
		return t0, t1, ""
	}
	copy(in.buf, in.src)
	t0 = time.Now()
	err := s.m.TaskRunCtx(ctx, func(sc taskScope) { sortTree(sc, in.buf, in.tmp, sortCutoff) })
	t1 = time.Now()
	if err != nil {
		return t0, t1, err.Error()
	}
	if !slices.Equal(in.buf, in.sorted) {
		return t0, t1, "mergesort output differs from the sequential reference"
	}
	return t0, t1, ""
}

func (s *taskSeries) warm() error {
	for i := 0; i < taskWarmOps/2; i++ {
		for kind := range taskKinds {
			if _, _, wrong := s.do(kind, i); wrong != "" {
				return fmt.Errorf("%s warm-up: %s", s.fam, wrong)
			}
		}
	}
	return nil
}

func (s *taskSeries) run(d time.Duration, _ uint64, log *spanLog) roundSamples {
	return closedLoop(d, s.fam, taskKinds, s.ideal, log, s.do)
}

func (s *taskSeries) counts() (counts, bool) { return readCounts(s.m) }
func (s *taskSeries) close()                 { s.m.Close() }

func buildTasks(seed uint64, threads int) (*instance, error) {
	in := &taskInputs{
		src: make([]int64, sortN), sorted: make([]int64, sortN),
		buf: make([]int64, sortN), tmp: make([]int64, sortN),
	}
	r := rng(seed)
	for i := range in.src {
		in.src[i] = int64(r.next() >> 16)
	}
	inst := &instance{seqUS: []float64{
		timeSeq(9, func() { in.fibRef = fibSeq(fibN) }),
		timeSeq(9, func() {
			copy(in.sorted, in.src)
			sortTree(nil, in.sorted, in.tmp, sortCutoff)
		}),
	}}
	ideal := []float64{inst.seqUS[0] / float64(threads), inst.seqUS[1] / float64(threads)}
	for i, f := range families {
		m, err := newTaskRunner(f.task, threads)
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.series[i] = &taskSeries{fam: f.name, m: m, in: in, ideal: ideal}
	}
	return inst, nil
}
