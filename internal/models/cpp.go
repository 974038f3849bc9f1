package models

import (
	"context"
	"strconv"

	"threading/internal/futures"
	"threading/internal/sched"
	"threading/internal/tracez"
)

// cppThread is the C++11 std::thread configuration: no runtime at
// all. Parallel loops are manual chunking — one freshly created
// thread per chunk, joined at the end — so thread creation and join
// overhead is paid on every parallel operation, exactly as in the
// paper's std::thread versions.
type cppThread struct {
	n  int
	tr *tracez.Tracer
}

func newCPPThread(threads int, tr *tracez.Tracer) Model {
	labelChunkRings(tr, threads)
	return &cppThread{n: threads, tr: tr}
}

// labelChunkRings names the rings a thread-per-chunk model records
// into: chunk index i writes ring i, and recursive task spawns (which
// have no stable chunk identity) share the overflow ring n. The rings
// are created lazily by the first Record; only the labels are eager.
func labelChunkRings(tr *tracez.Tracer, n int) {
	if tr == nil {
		return
	}
	for i := 0; i < n; i++ {
		tr.Label(i, "cpp-c"+strconv.Itoa(i))
	}
	tr.Label(n, "cpp-task")
}

func (m *cppThread) Name() string { return CPPThread }
func (m *cppThread) Threads() int { return m.n }

func (m *cppThread) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	reg := sched.NewRegion(ctx)
	k := m.n
	ths := make([]*futures.Thread, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := chunkFor(n, k, i)
		if lo >= hi {
			continue
		}
		ths = append(ths, futures.NewThreadTraced(m.tr.Ring(i), int64(lo), int64(hi),
			guarded(reg, func() { body(lo, hi) })))
	}
	for _, th := range ths {
		//threadvet:ignore ctxdrop drain on purpose: guarded bodies stop at chunk boundaries once ctx cancels, and the region must be empty before the model is reusable (JoinCtx would abandon live threads)
		th.Join()
	}
	return reg.Finish()
}

func (m *cppThread) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	reg := sched.NewRegion(ctx)
	k := m.n
	partials := make([]float64, k)
	ths := make([]*futures.Thread, 0, k)
	for i := 0; i < k; i++ {
		i := i
		lo, hi := chunkFor(n, k, i)
		partials[i] = identity
		if lo >= hi {
			continue
		}
		ths = append(ths, futures.NewThreadTraced(m.tr.Ring(i), int64(lo), int64(hi),
			guarded(reg, func() { partials[i] = body(lo, hi, identity) })))
	}
	for _, th := range ths {
		//threadvet:ignore ctxdrop drain on purpose: guarded bodies stop at chunk boundaries once ctx cancels, and every partial must be written before the combine loop reads them
		th.Join()
	}
	if err := reg.Finish(); err != nil {
		return identity, err
	}
	acc := identity
	for _, p := range partials {
		acc = combine(acc, p)
	}
	return acc, nil
}

// threadScope implements TaskScope by creating a real thread per
// spawn. This is the configuration the paper reports as hanging for
// fib(20)+ without a cut-off: the thread count equals the task count.
// Callers are expected to bound recursion depth (see kernels.FibTask).
// Every scope in a run shares the run's region: Spawn drops new tasks
// once the region is canceled, and a task panic is recorded into the
// region rather than re-panicking out of Join.
type threadScope struct {
	reg      *sched.Region
	ring     *tracez.Ring // shared overflow ring; nil disables tracing
	children []*futures.Thread
}

func (s *threadScope) Spawn(fn func(TaskScope)) {
	if s.reg.Canceled() {
		return
	}
	reg, ring := s.reg, s.ring
	s.children = append(s.children, futures.NewThreadTraced(ring, 0, 0, guarded(reg, func() {
		child := &threadScope{reg: reg, ring: ring}
		fn(child)
		child.Sync() // a thread joins its own children before exiting
	})))
}

func (s *threadScope) Sync() {
	for _, th := range s.children {
		th.Join()
	}
	s.children = s.children[:0]
}

func (m *cppThread) TaskRunCtx(ctx context.Context, root func(TaskScope)) error {
	reg := sched.NewRegion(ctx)
	s := &threadScope{reg: reg, ring: m.tr.Ring(m.n)}
	guarded(reg, func() { root(s) })()
	s.Sync() // drain spawned threads even when root panicked or was skipped
	return reg.Finish()
}

func (m *cppThread) SchedulerStats() (sched.Snapshot, bool) {
	return sched.Snapshot{}, false // no runtime, no counters
}

func (m *cppThread) Close() {}

// cppAsync is the C++11 std::async configuration: one async task per
// chunk for loops, futures for joins. Each async launch is a fresh
// thread of execution (std::launch::async), so it shares cpp_thread's
// creation overhead but adds future synchronization.
type cppAsync struct {
	n  int
	tr *tracez.Tracer
}

func newCPPAsync(threads int, tr *tracez.Tracer) Model {
	labelChunkRings(tr, threads)
	return &cppAsync{n: threads, tr: tr}
}

func (m *cppAsync) Name() string { return CPPAsync }
func (m *cppAsync) Threads() int { return m.n }

func (m *cppAsync) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	reg := sched.NewRegion(ctx)
	k := m.n
	fs := make([]*futures.Future[struct{}], 0, k)
	for i := 0; i < k; i++ {
		lo, hi := chunkFor(n, k, i)
		if lo >= hi {
			continue
		}
		fs = append(fs, futures.AsyncTraced(m.tr.Ring(i), futures.LaunchAsync, int64(lo), int64(hi),
			func() (struct{}, error) {
				guarded(reg, func() { body(lo, hi) })()
				return struct{}{}, nil
			}))
	}
	for _, f := range fs {
		//threadvet:ignore ctxdrop drain on purpose: guarded bodies stop at chunk boundaries once ctx cancels; GetCtx would abandon running tasks and race the next region
		if _, err := f.Get(); err != nil {
			reg.RecordError(err)
		}
	}
	return reg.Finish()
}

func (m *cppAsync) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	reg := sched.NewRegion(ctx)
	k := m.n
	fs := make([]*futures.Future[float64], 0, k)
	for i := 0; i < k; i++ {
		lo, hi := chunkFor(n, k, i)
		if lo >= hi {
			continue
		}
		fs = append(fs, futures.AsyncTraced(m.tr.Ring(i), futures.LaunchAsync, int64(lo), int64(hi),
			func() (v float64, _ error) {
				v = identity
				guarded(reg, func() { v = body(lo, hi, identity) })()
				return v, nil
			}))
	}
	acc := identity
	for _, f := range fs {
		//threadvet:ignore ctxdrop drain on purpose: guarded bodies stop at chunk boundaries once ctx cancels; every chunk future must settle before the region is reported finished
		v, err := f.Get()
		if err != nil {
			reg.RecordError(err)
			continue
		}
		acc = combine(acc, v)
	}
	if err := reg.Finish(); err != nil {
		return identity, err
	}
	return acc, nil
}

// asyncScope implements TaskScope over std::async-style futures.
// Every scope in a run shares the run's region: Spawn drops new tasks
// once the region is canceled, and a task panic is recorded into the
// region rather than surfacing as a future error.
type asyncScope struct {
	reg      *sched.Region
	ring     *tracez.Ring // shared overflow ring; nil disables tracing
	children []*futures.Future[struct{}]
}

func (s *asyncScope) Spawn(fn func(TaskScope)) {
	if s.reg.Canceled() {
		return
	}
	reg, ring := s.reg, s.ring
	s.children = append(s.children, futures.AsyncTraced(ring, futures.LaunchAsync, 0, 0,
		func() (struct{}, error) {
			guarded(reg, func() {
				child := &asyncScope{reg: reg, ring: ring}
				fn(child)
				child.Sync()
			})()
			return struct{}{}, nil
		}))
}

func (s *asyncScope) Sync() {
	for _, f := range s.children {
		if _, err := f.Get(); err != nil {
			s.reg.RecordError(err)
		}
	}
	s.children = s.children[:0]
}

func (m *cppAsync) TaskRunCtx(ctx context.Context, root func(TaskScope)) error {
	reg := sched.NewRegion(ctx)
	s := &asyncScope{reg: reg, ring: m.tr.Ring(m.n)}
	guarded(reg, func() { root(s) })()
	s.Sync() // drain spawned futures even when root panicked or was skipped
	return reg.Finish()
}

func (m *cppAsync) SchedulerStats() (sched.Snapshot, bool) {
	return sched.Snapshot{}, false
}

func (m *cppAsync) Close() {}
