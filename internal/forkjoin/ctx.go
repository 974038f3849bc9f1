package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"

	"threading/internal/tracez"
)

// Ctx is a member's handle inside a parallel region. All members of a
// region execute the same code (SPMD), so work-sharing constructs
// (ForRange, Single, Reduce) must be reached by every member in the
// same order — as in OpenMP.
type Ctx struct {
	m         *member
	r         *region
	loopSeq   int
	singleSeq int
}

// ID returns this member's index, in [0, Team().Size()).
func (tc *Ctx) ID() int { return tc.m.id }

// Team returns the executing team.
func (tc *Ctx) Team() *Team { return tc.m.team }

// Canceled reports whether the region has been canceled — by the
// context passed to ParallelCtx or by a panic elsewhere in the
// region. Long-running chunk bodies can poll it to stop early; the
// runtime itself checks it at every chunk and task boundary.
func (tc *Ctx) Canceled() bool { return tc.m.reg.Canceled() }

// guard wraps a chunk body with the region's cancellation check and
// panic capture: a canceled region skips remaining chunks, and a
// panicking chunk records a *sched.PanicError and cancels the region
// while its siblings drain — the shared chunk-boundary semantics of
// every work-sharing schedule.
func (tc *Ctx) guard(body func(l, h int)) func(l, h int) {
	reg := tc.m.reg
	return func(l, h int) {
		if reg.Canceled() {
			return
		}
		defer func() {
			if p := recover(); p != nil {
				reg.RecordPanic(p)
			}
		}()
		body(l, h)
	}
}

// Barrier blocks until every member of the region arrives —
// the OpenMP "barrier" construct. It returns true on exactly one
// member per phase.
func (tc *Ctx) Barrier() bool {
	tc.m.st.CountBarrierWait()
	tc.m.ring.Record(tracez.KindBarrierStart, 0, 0)
	last := tc.m.team.barrier.Wait()
	tc.m.ring.Record(tracez.KindBarrierEnd, 0, 0)
	return last
}

// Critical executes fn under the team-wide critical-section lock —
// the OpenMP "critical" construct (single unnamed lock).
func (tc *Ctx) Critical(fn func()) {
	tc.m.team.criticalMu.Lock()
	defer tc.m.team.criticalMu.Unlock()
	fn()
}

// Master executes fn on member 0 only, without synchronization — the
// OpenMP "master" construct. A panic in fn is recorded and cancels
// the region rather than unwinding past the region's barriers.
func (tc *Ctx) Master(fn func()) {
	if tc.m.id == 0 {
		tc.guard(func(_, _ int) { fn() })(0, 1)
	}
}

// Single executes fn on the first member to arrive; all members then
// synchronize at an implicit barrier — the OpenMP "single" construct.
func (tc *Ctx) Single(fn func()) {
	d := tc.r.getSingle(tc.singleSeq)
	tc.singleSeq++
	if d.claimed.CompareAndSwap(false, true) {
		tc.guard(func(_, _ int) { fn() })(0, 1)
	}
	tc.Barrier()
}

// Sections distributes the given function blocks across the team,
// each executing exactly once on some member, followed by an implicit
// barrier — the OpenMP "sections" construct. Blocks are claimed
// first-come first-served, so a member may execute several.
func (tc *Ctx) Sections(fns ...func()) {
	seq := tc.loopSeq
	tc.loopSeq++
	// Sections hands blocks out from d.next, which every schedule
	// seeds; it needs no per-member ranges.
	d := tc.r.getLoop(seq, tc.m.team, Static, 0, len(fns))
	run := tc.guard(func(l, _ int) { fns[l]() })
	for !tc.m.reg.Canceled() {
		i := d.next.Add(1) - 1
		if i >= d.hi {
			break
		}
		run(int(i), int(i)+1)
	}
	tc.Barrier()
}

// ForRange distributes the iteration space [lo, hi) across the team
// according to s and calls body once per assigned chunk — the OpenMP
// "for" work-sharing construct with its implicit end barrier.
func (tc *Ctx) ForRange(s Schedule, lo, hi int, body func(l, h int)) {
	tc.forRange(s, lo, hi, body)
	tc.Barrier()
}

// ForRangeNoWait is ForRange without the implicit end barrier —
// the "nowait" clause.
func (tc *Ctx) ForRangeNoWait(s Schedule, lo, hi int, body func(l, h int)) {
	tc.forRange(s, lo, hi, body)
}

func (tc *Ctx) forRange(s Schedule, lo, hi int, body func(l, h int)) {
	seq := tc.loopSeq
	tc.loopSeq++
	run := tc.guard(body)
	if ring := tc.m.ring; ring != nil {
		// Wrap once per loop, not per chunk, so the disabled path pays
		// only this nil check.
		inner := run
		run = func(l, h int) {
			ring.Record(tracez.KindChunkStart, int64(l), int64(h))
			inner(l, h)
			ring.Record(tracez.KindChunkEnd, int64(l), int64(h))
		}
	}
	switch s.Kind {
	case ScheduleStatic:
		// No shared descriptor needed: assignment is a pure function
		// of the member id, which is what makes static cheap.
		tc.m.st.CountLoopChunk()
		forStatic(tc.m.id, tc.m.team.n, lo, hi, s.Chunk, run)
	case ScheduleDynamic:
		forDynamic(tc.r.getLoop(seq, tc.m.team, s, lo, hi), tc.m, run)
	case ScheduleGuided:
		forGuided(tc.r.getLoop(seq, tc.m.team, s, lo, hi), tc.m, s.Chunk, run)
	}
}

// For distributes [lo, hi) and calls body once per iteration.
func (tc *Ctx) For(s Schedule, lo, hi int, body func(i int)) {
	tc.ForRange(s, lo, hi, func(l, h int) {
		for i := l; i < h; i++ {
			body(i)
		}
	})
}

// ReduceFloat64 is a work-sharing loop with a float64 reduction:
// body folds each assigned chunk into acc and returns the new value;
// combine folds the members' partial results. Every member receives
// the combined value — the OpenMP "for reduction(...)" construct.
// combine must be associative and commutative.
func (tc *Ctx) ReduceFloat64(s Schedule, lo, hi int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) float64 {

	seq := tc.loopSeq
	// Claim the descriptor for the partials with the loop's schedule:
	// whichever of this call and forRange's comes first builds it.
	d := tc.r.getLoop(seq, tc.m.team, s, lo, hi)
	acc := identity
	tc.forRange(s, lo, hi, func(l, h int) {
		acc = body(l, h, acc)
	})
	d.slots[tc.m.id].partial = acc
	tc.Barrier()
	tc.Master(func() {
		res := identity
		for i := range d.slots {
			res = combine(res, d.slots[i].partial)
		}
		d.result = res
	})
	tc.Barrier()
	return d.result
}

// node of the implicit task a member is currently executing; explicit
// tasks created here become its children.
type taskNode struct {
	children atomic.Int64
	parent   *taskNode

	// Dependency table for TaskDepend children, created on demand.
	depOnce sync.Once
	deps    *depDomain
}

// task is one explicit task: a body plus its node in the task tree.
// The node is embedded (node normally points at own), and finished
// records are recycled through the executing member's arena in the
// task core (Alloc / member.recycle), so in steady state an
// OpenMP-style task creation allocates nothing. Dependency tasks keep
// standalone nodes (their depTask graph outlives any one record), so
// for them node points elsewhere and own stays unused.
type task struct {
	fn   func(*Ctx)
	node *taskNode
	own  taskNode
}

// Task creates an explicit task — the OpenMP "task" construct. Under
// the default deferred policy the task is pushed on this member's
// deque and runs at a task scheduling point — a Taskwait, or the
// region end, where members wait for the others' bodies and tasks —
// on whichever member claims it; an explicit Barrier does not run
// tasks. Under TaskImmediate it runs inline. The body receives the
// Ctx of the executing member.
func (tc *Ctx) Task(fn func(*Ctx)) {
	t := tc.m.team
	tc.m.st.CountSpawn()
	tc.m.ring.Record(tracez.KindSpawn, 0, 0)
	tk := tc.m.Alloc()
	tk.fn = fn
	tk.node = &tk.own
	tk.own.parent = tc.m.cur
	tc.m.cur.children.Add(1)
	t.outstanding.Add(1)
	if t.opts.Policy == TaskImmediate {
		tc.m.execute(tc, tk)
		return
	}
	tc.m.Push(tk)
}

// Taskwait blocks until every child task created by the current task
// (or by this member's implicit region task) has completed — the
// OpenMP "taskwait" construct. While waiting, the member executes
// queued tasks, its own first.
func (tc *Ctx) Taskwait() {
	m := tc.m
	node := m.cur
	idle := 0
	for node.children.Load() > 0 {
		if tk := m.Find(); tk != nil {
			idle = 0
			m.execute(tc, tk)
			continue
		}
		idle++
		if idle >= defaultDrainSpin {
			runtime.Gosched()
			idle = 0
		}
	}
}
