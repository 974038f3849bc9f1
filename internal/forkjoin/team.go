// Package forkjoin implements an OpenMP-style fork-join runtime: a
// persistent team of workers executes parallel regions, inside which
// loop iterations are distributed by work-sharing schedules (static,
// dynamic, guided) and explicit tasks are scheduled over per-member
// deques.
//
// This is the "OpenMP" side of the reproduced paper. Its two defining
// properties — O(1) hand-out of loop chunks by work-sharing (no steals
// on the distribution path), and lock-based task deques in the tasking
// layer (matching the Intel OpenMP runtime the paper measured) — are
// the mechanisms behind the paper's headline results on data-parallel
// kernels (Figs. 1-4) and recursive tasking (Fig. 5).
package forkjoin

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"sync"
	"sync/atomic"

	"threading/internal/deque"
	"threading/internal/sched"
	"threading/internal/syncprim"
	"threading/internal/tracez"
)

// TaskPolicy selects when an explicit task body runs.
type TaskPolicy int

const (
	// TaskDeferred queues tasks on the creating member's deque, to be
	// executed at scheduling points (taskwait, region end) or stolen by
	// members waiting at one. This models breadth-first task
	// creation as in the Intel OpenMP runtime.
	TaskDeferred TaskPolicy = iota
	// TaskImmediate executes the task body inline at the creation
	// site, modelling a work-first scheduler (undeferred tasks).
	TaskImmediate
)

// config is a Team's resolved Option values.
type config struct {
	// TaskDeque selects the deque backing explicit tasks. The default
	// deque.KindChaseLev is overridden to deque.KindLocked by NewTeam
	// unless LockFreeTasks is set, because the modelled runtime uses
	// lock-based deques.
	LockFreeTasks bool
	// Policy selects deferred (default) or immediate task execution.
	Policy TaskPolicy
	// CentralBarrier replaces the default sense-reversing barrier
	// with the lock-based central barrier (ablation).
	CentralBarrier bool
	// DefaultSchedule is the work-sharing schedule used by callers
	// that ask the team for its default (Team.DefaultSchedule). The
	// zero value is the static schedule.
	DefaultSchedule Schedule
	// Tracer, when non-nil, receives per-member runtime events
	// (task/chunk spans, spawns, steals, barrier waits). Nil disables
	// tracing; the hot paths then pay only a nil check.
	Tracer *tracez.Tracer
	// PinWorkers locks members 1..n-1 to OS threads
	// (runtime.LockOSThread) for the life of the team. Member 0 is the
	// caller's goroutine and is never pinned by the team.
	PinWorkers bool
}

// Option configures a Team at construction. It is an interface
// (rather than a bare func type) so the root threading package can
// define combined option values that satisfy several layers' option
// types at once.
type Option interface{ applyTeam(*config) }

type teamOption func(*config)

func (f teamOption) applyTeam(o *config) { f(o) }

// WithLockFreeTasks backs explicit tasks with lock-free Chase-Lev
// deques instead of the default lock-based deques.
func WithLockFreeTasks() Option {
	return teamOption(func(o *config) { o.LockFreeTasks = true })
}

// WithTaskPolicy selects deferred or immediate task execution.
func WithTaskPolicy(p TaskPolicy) Option {
	return teamOption(func(o *config) { o.Policy = p })
}

// WithCentralBarrier selects the lock-based central barrier.
func WithCentralBarrier() Option {
	return teamOption(func(o *config) { o.CentralBarrier = true })
}

// WithSchedule sets the team's default work-sharing schedule.
func WithSchedule(s Schedule) Option {
	return teamOption(func(o *config) { o.DefaultSchedule = s })
}

// WithTracer attaches a runtime-event tracer: every member records its
// events into the tracer's ring for its member id. A nil tracer leaves
// tracing disabled.
func WithTracer(tr *tracez.Tracer) Option {
	return teamOption(func(o *config) { o.Tracer = tr })
}

// WithPinnedWorkers locks each persistent member goroutine (members
// 1..n-1) to an OS thread for the life of the team, so members keep
// their caches instead of migrating between threads at the Go
// scheduler's whim. Member 0 is the calling goroutine and is never
// pinned by the team (pin it yourself if the master must not move).
func WithPinnedWorkers(on bool) Option {
	return teamOption(func(o *config) { o.PinWorkers = on })
}

// Team is a fixed-size group of workers executing parallel regions.
// The calling goroutine acts as member 0 (the master); members
// 1..n-1 are persistent goroutines that block between regions, so a
// region launch costs one channel send per worker, not a goroutine
// spawn — the fork-join model's "fork".
//
// A Team is not safe for concurrent Parallel calls and regions must
// not nest; this mirrors the single-level OpenMP usage the paper
// benchmarks. The executor surface (ParallelForCtx, ParallelReduceCtx,
// SubmitCtx) is safe for concurrent and nested callers: a loop that
// finds the team busy runs as a serialized region on its caller.
type Team struct {
	n       int
	opts    config
	barrier syncprim.Barrier
	members []*member
	stats   *sched.Stats

	criticalMu sync.Mutex
	async      sched.AsyncGroup // in-flight SubmitCtx tasks, joined by Quiesce
	// inRegion is held while a region runs. Parallel panics when it
	// finds it held; the executor surface runs its loop as a
	// serialized region on the caller instead (executor.go).
	inRegion atomic.Bool
	closed   atomic.Bool

	// freeMu guards the team-wide overflow freelist that member arenas
	// spill to and refill from, so task records stolen cross-member
	// circulate back to whoever allocates next. Touched only when a
	// local list runs dry or overflows.
	freeMu    sync.Mutex
	freeList  *task
	freeCount int

	// outstanding is bumped twice per explicit task, by whichever
	// members create and finish it; padded onto its own cache line so
	// that per-task traffic doesn't false-share with the locks and
	// flags above (closed and inRegion are read on every region entry).
	// sleepers shares the line: every push reads it right after its
	// creator's outstanding increment, and it is written only by
	// members parking at the region-end gate.
	_           [sched.CacheLine]byte
	outstanding atomic.Int64 // live explicit tasks
	sleepers    atomic.Int32 // members parked (or parking) at the region-end gate
	_           [sched.CacheLine - 12]byte

	wg sync.WaitGroup
}

// member is one team participant. Member 0 has no cmds channel: it is
// driven directly by Parallel on the calling goroutine.
type member struct {
	id   int
	team *Team
	cmds chan *region
	dq   deque.Deque[task]
	rng  *sched.Rand
	st   *sched.Shard
	cur  *taskNode     // node whose children a taskwait would join
	reg  *sched.Region // cancellation state of the region being run
	ring *tracez.Ring  // nil unless the team was built WithTracer

	// free is the member-local task arena: records recycled by execute
	// and reused by alloc. Capped at maxFreeTasks with overflow spilled
	// to the team-wide list. Owner-only, like dq's bottom end.
	free  *task
	nfree int

	// parker and parked are written by other members (wake's CAS,
	// Parker.Unpark), so they sit past a pad instead of false-sharing
	// with the owner's per-task deque and arena accesses above.
	_      [sched.CacheLine]byte
	parker sched.Parker
	parked atomic.Bool
}

// region is the shared state of one parallel region: the body, the
// cancellation/failure state, the region-end gate's arrival count, and
// the lazily created descriptors for each work-sharing construct in it.
type region struct {
	fn      func(*Ctx)
	reg     *sched.Region
	arrived atomic.Int64 // members whose body has returned
	mu      sync.Mutex
	loops   map[int]*loopDesc
	singles map[int]*singleDesc
}

// defaultDrainSpin bounds the waiting at task scheduling points:
// Taskwait polls for this many failed find-work rounds between
// yields, and the region-end gate yields for this many rounds with no
// task live before it parks.
const defaultDrainSpin = 64

// NewTeam creates a team of n members (including the master). n must
// be at least 1.
func NewTeam(n int, options ...Option) *Team {
	if n < 1 {
		panic("forkjoin: team needs at least 1 member")
	}
	var opts config
	for _, o := range options {
		o.applyTeam(&opts)
	}
	t := &Team{n: n, opts: opts, stats: sched.NewStats(n)}
	if opts.CentralBarrier {
		t.barrier = syncprim.NewCentralBarrier(n)
	} else {
		t.barrier = syncprim.NewSenseBarrier(n)
	}
	kind := deque.KindLocked
	if opts.LockFreeTasks {
		kind = deque.KindChaseLev
	}
	t.members = make([]*member, n)
	for i := 0; i < n; i++ {
		m := &member{
			id:   i,
			team: t,
			dq:   deque.New[task](kind),
			rng:  sched.NewRand(uint64(i)*0x9E3779B9 + 7),
			st:   t.stats.Shard(i),
		}
		if opts.Tracer != nil {
			m.ring = opts.Tracer.Ring(i)
			opts.Tracer.Label(i, "fj-m"+strconv.Itoa(i))
		}
		if i > 0 {
			m.cmds = make(chan *region)
		}
		t.members[i] = m
	}
	for i := 1; i < n; i++ {
		t.wg.Add(1)
		m := t.members[i]
		go func() {
			if opts.PinWorkers {
				// Pin for the goroutine's whole life; the lock dies with
				// the goroutine when loop returns at Close.
				runtime.LockOSThread()
			}
			// pprof label the member goroutine so CPU profiles split by
			// runtime and member, not one anonymous goroutine blob.
			// Member 0 is the caller's goroutine and keeps its labels.
			pprof.Do(context.Background(), pprof.Labels(
				"runtime", "forkjoin", "worker", strconv.Itoa(m.id),
			), func(context.Context) { m.loop() })
		}()
	}
	return t
}

// maxFreeTasks caps each member-local freelist; freeTransfer is the
// batch moved between a local list and the team-wide overflow list;
// maxTeamFree caps the team-wide list, beyond which records are
// dropped for the GC.
const (
	maxFreeTasks = 256
	freeTransfer = 64
	maxTeamFree  = 4096
)

// alloc returns a task record from the member's arena, refilling from
// the team-wide overflow list when the local list is dry; a fresh heap
// allocation is the last resort. Only the member's own goroutine may
// call it.
func (m *member) alloc() *task {
	if m.free == nil {
		m.refill()
	}
	if tk := m.free; tk != nil {
		m.free = tk.next
		m.nfree--
		tk.next = nil
		return tk
	}
	return new(task)
}

// recycle returns tk to the executing member's arena — the
// return-to-executor rule, matching worksteal's. It must run after
// execute's final bookkeeping: at that point no deque can yield tk
// again, and if the embedded node was exposed to children (node ==
// &own) it is reset only when their count has drained to zero — the
// atomic load ordering the last child's decrement before the reset.
// A record whose embedded node still has live children (a task that
// returned without joining deferred children) is left for the GC.
func (m *member) recycle(tk *task) {
	if tk.node == &tk.own {
		if tk.own.children.Load() != 0 {
			return
		}
		tk.own = taskNode{}
	}
	tk.fn, tk.node = nil, nil
	if m.nfree >= maxFreeTasks {
		m.spill()
	}
	tk.next = m.free
	m.free = tk
	m.nfree++
}

// refill moves up to freeTransfer records from the team-wide list to
// m's; batching keeps the shared lock off the per-task path.
func (m *member) refill() {
	t := m.team
	t.freeMu.Lock()
	n := 0
	for n < freeTransfer && t.freeList != nil {
		tk := t.freeList
		t.freeList = tk.next
		tk.next = m.free
		m.free = tk
		n++
	}
	t.freeCount -= n
	t.freeMu.Unlock()
	m.nfree += n
}

// spill moves a freeTransfer batch from m's overfull local list to
// the team-wide list (or drops it for the GC when that list is full),
// so a member that executes far more than it creates hands records
// back to the creators.
func (m *member) spill() {
	var head, tail *task
	n := 0
	for n < freeTransfer && m.free != nil {
		tk := m.free
		m.free = tk.next
		tk.next = head
		if head == nil {
			tail = tk
		}
		head = tk
		n++
	}
	m.nfree -= n
	if head == nil {
		return
	}
	t := m.team
	t.freeMu.Lock()
	if t.freeCount+n <= maxTeamFree {
		tail.next = t.freeList
		t.freeList = head
		t.freeCount += n
	}
	t.freeMu.Unlock()
}

// Size reports the number of team members.
func (t *Team) Size() int { return t.n }

// DefaultSchedule returns the team's default work-sharing schedule
// (set with WithSchedule; the zero value is Static).
func (t *Team) DefaultSchedule() Schedule { return t.opts.DefaultSchedule }

// Stats returns a snapshot of the runtime counters.
func (t *Team) Stats() sched.Snapshot { return t.stats.Snapshot() }

// ResetStats zeroes the runtime counters.
func (t *Team) ResetStats() { t.stats.Reset() }

// Close releases the worker goroutines. The team must not be used
// afterwards.
func (t *Team) Close() {
	if t.closed.Swap(true) {
		return
	}
	for i := 1; i < t.n; i++ {
		close(t.members[i].cmds)
	}
	t.wg.Wait()
}

// Parallel executes fn once on every team member concurrently — the
// OpenMP "parallel" construct. It returns after every member has
// finished, every explicit task created in the region has completed,
// and all members have joined the implicit end-of-region barrier. If
// any member or task panicked, Parallel re-panics on the caller with
// the first recorded value.
func (t *Team) Parallel(fn func(tc *Ctx)) {
	if err := t.ParallelCtx(context.Background(), fn); err != nil {
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			panic(fmt.Sprintf("forkjoin: parallel region panicked: %v", pe.Value))
		}
		panic(fmt.Sprintf("forkjoin: parallel region failed: %v", err))
	}
}

// ParallelCtx is Parallel with cooperative cancellation and structured
// error propagation. Cancellation (including deadline expiry) is
// observed at work-sharing chunk boundaries and explicit-task
// boundaries: in-flight chunk bodies run to completion, queued chunks
// and tasks are skipped, every member still joins the end-of-region
// barrier, and the team remains reusable. The returned error is the
// first failure: the context's error, or a *sched.PanicError wrapping
// the first panic recovered from any member or task (a panic also
// cancels the rest of the region). A nil return means every chunk and
// task ran to completion.
func (t *Team) ParallelCtx(ctx context.Context, fn func(tc *Ctx)) error {
	ran, err := t.tryParallel(ctx, fn)
	if !ran {
		panic("forkjoin: nested or concurrent parallel regions are not supported")
	}
	return err
}

// tryParallel runs fn as a team region if no region is running and
// reports whether it did; claiming inRegion is the team's one lock,
// taken without waiting. It panics on a closed team.
func (t *Team) tryParallel(ctx context.Context, fn func(tc *Ctx)) (bool, error) {
	if t.closed.Load() {
		panic("forkjoin: Parallel on closed team")
	}
	if !t.inRegion.CompareAndSwap(false, true) {
		return false, nil
	}
	defer t.inRegion.Store(false)
	r := &region{
		fn:      fn,
		reg:     sched.NewRegion(ctx),
		loops:   make(map[int]*loopDesc),
		singles: make(map[int]*singleDesc),
	}
	for i := 1; i < t.n; i++ {
		t.members[i].cmds <- r
	}
	t.members[0].runRegion(r)
	return true, r.reg.Finish()
}

// loop is the worker main loop: run regions until the team closes.
func (m *member) loop() {
	defer m.team.wg.Done()
	for r := range m.cmds {
		m.runRegion(r)
	}
}

// runRegion executes the region body on this member, drains explicit
// tasks, and joins the implicit end-of-region barrier.
func (m *member) runRegion(r *region) {
	root := &taskNode{}
	m.cur = root
	m.reg = r.reg
	// Work-sharing chunk spans have no free argument for a request id
	// (A1/A2 are the iteration range), so tag the member's whole
	// region with an ambient req-tag instant instead; the matching
	// clear below keeps ids from leaking across regions.
	if rid := r.reg.TraceID(); rid != 0 {
		m.ring.Record(tracez.KindReqTag, rid, 0)
	}
	tc := &Ctx{m: m, r: r}
	func() {
		defer func() {
			if p := recover(); p != nil {
				m.reg.RecordPanic(p)
			}
		}()
		r.fn(tc)
	}()
	// Region end: help until every member has arrived and every
	// explicit task in the region has finished, then join the implicit
	// barrier. The gate alone is a full rendezvous, but the barrier
	// keeps a member that is still polling this region's gate from
	// stealing a task of the next region (outstanding is team-wide)
	// and running it under this region's Ctx. Hand the hoard beyond a
	// one-refill stash back to the team list on the way out, so records
	// drained here flow back to whichever member spawns in the next
	// region instead of waiting for the maxFreeTasks cap.
	m.awaitRegionEnd(tc, r)
	for m.nfree > freeTransfer {
		m.spill()
	}
	m.st.CountBarrierWait()
	m.ring.Record(tracez.KindBarrierStart, 0, 0)
	m.team.barrier.Wait()
	m.ring.Record(tracez.KindBarrierEnd, 0, 0)
	if r.reg.TraceID() != 0 {
		m.ring.Record(tracez.KindReqTag, 0, 0)
	}
	m.cur = nil
	m.reg = nil
}

// awaitRegionEnd is the task scheduling point at the end of a region,
// as OpenMP makes the implicit barrier there: the member executes the
// team's explicit tasks until every member's body has returned and no
// task is live. A member whose body returns before another member has
// spawned — member 1 under a Master that builds a whole task tree —
// must still be there to take those tasks, so it waits here rather
// than in the barrier. While tasks are live it keeps looking for one,
// yielding after each miss; while none is live and a body is still
// running it yields for defaultDrainSpin rounds, then parks until a
// push or the last arrival wakes it.
func (m *member) awaitRegionEnd(tc *Ctx, r *region) {
	t := m.team
	n := int64(t.n)
	if r.arrived.Add(1) == n && t.sleepers.Load() > 0 {
		t.wake(true)
	}
	idle := 0
	for {
		// The gate is checked before findTask, so a region without
		// tasks takes no deque lock and counts no failed steal here.
		if t.outstanding.Load() > 0 {
			if tk := m.findTask(); tk != nil {
				m.execute(tc, tk)
			} else {
				runtime.Gosched()
			}
			idle = 0
			continue
		}
		if r.arrived.Load() == n {
			return
		}
		if idle++; idle < defaultDrainSpin {
			runtime.Gosched()
			continue
		}
		idle = 0
		m.park(r)
	}
}

// park blocks m at the region-end gate until a push or the region's
// last arrival wakes it, unless a task or the last arrival turns up
// while it is parking.
//
// No wake-up is lost. The member publishes itself (sleepers, then
// parked) before it re-reads outstanding and arrived; a pusher raises
// outstanding, and the last arrival raises arrived, before reading
// sleepers and claiming parked. Go's atomics are sequentially
// consistent, so either the re-read here sees the new task or arrival
// and the member does not block, or the waker sees sleepers > 0 and
// parked set and unparks it — and an Unpark that lands before Park
// leaves a token, so it is not lost either. A token left by a waker
// that raced a member which then did not block only cuts a later park
// short; the gate loop re-checks its condition after every wake.
func (m *member) park(r *region) {
	t := m.team
	t.sleepers.Add(1)
	m.parked.Store(true)
	if t.outstanding.Load() == 0 && r.arrived.Load() < int64(t.n) {
		m.st.CountPark()
		m.ring.Record(tracez.KindPark, 0, 0)
		m.parker.Park()
		m.ring.Record(tracez.KindUnpark, 0, 0)
	}
	m.parked.Store(false)
	t.sleepers.Add(-1)
}

// wake unparks one member parked at the region-end gate, or every one
// of them when all is set.
func (t *Team) wake(all bool) {
	for _, m := range t.members {
		if m.parked.CompareAndSwap(true, false) {
			m.parker.Unpark()
			if !all {
				return
			}
		}
	}
}

// push makes tk findable on m's deque and, when members are parked at
// the region-end gate, wakes one to take it: the one atomic load every
// deferred spawn pays for the gate. Every deferred task, with or
// without dependences, enters the deques through here.
func (m *member) push(tk *task) {
	m.dq.PushBottom(tk)
	if m.team.sleepers.Load() > 0 {
		m.team.wake(false)
	}
}

// findTask pops the member's own deque or steals from a random
// victim.
func (m *member) findTask() *task {
	if tk := m.dq.PopBottom(); tk != nil {
		return tk
	}
	n := len(m.team.members)
	if n == 1 {
		return nil
	}
	start := m.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := m.team.members[(start+i)%n]
		if v == m {
			continue
		}
		if tk := v.dq.Steal(); tk != nil {
			m.st.CountSteal()
			m.ring.Record(tracez.KindSteal, int64(v.id), 1)
			return tk
		}
	}
	m.st.CountFailedSteal()
	m.ring.Record(tracez.KindStealFail, 0, 0)
	return nil
}

// execute runs one explicit task body with parent tracking so that a
// taskwait inside the body joins the right children. In a canceled
// region the body is skipped but the bookkeeping still runs, so
// queued tasks drain and taskwait/region-end conditions resolve.
func (m *member) execute(tc *Ctx, tk *task) {
	m.st.CountTask()
	m.ring.Record(tracez.KindTaskStart, m.reg.TraceID(), 0)
	if m.ring != nil && trace.IsEnabled() {
		defer trace.StartRegion(context.Background(), "forkjoin.task").End()
	}
	saved := m.cur
	m.cur = tk.node
	if !m.reg.Canceled() {
		func() {
			defer func() {
				if p := recover(); p != nil {
					m.reg.RecordPanic(p)
				}
			}()
			tk.fn(tc)
		}()
	}
	m.cur = saved
	m.ring.Record(tracez.KindTaskEnd, 0, 0)
	tk.node.parent.children.Add(-1)
	m.team.outstanding.Add(-1)
	m.recycle(tk) // nothing can reach tk now; see recycle's safety note
}
