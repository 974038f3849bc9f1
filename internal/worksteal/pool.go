// Package worksteal implements a Cilk-style work-stealing task
// scheduler: each worker owns a deque of tasks, pushes and pops work
// at the bottom, and steals from a random victim's top when its own
// deque runs dry.
//
// The deque backend is pluggable (see internal/deque): the lock-free
// Chase-Lev deque models the Cilk Plus runtime, while the mutex-based
// deque models the Intel OpenMP task runtime. The reproduced paper
// attributes the cilk_spawn vs omp-task gap on recursive task
// parallelism (Fig. 5) to this difference, and the gap can be measured
// here by flipping a single option.
//
// Loop parallelism is provided by ForDAC, which mirrors cilk_for under
// two selectable partitioners (WithPartitioner): the paper-faithful
// Eager mode splits the iteration space up front so chunk distribution
// rides entirely on the stealing protocol — the property the paper
// blames for cilk_for's poor showing on flat data-parallel loops
// (Figs. 1-4) — while the Lazy mode splits only when another worker
// signals demand, closing most of that gap.
//
// Deques, record arenas, stealing and the park/wake handshake are the
// task core (sched.TaskCore) that forkjoin's team embeds too: thieves
// migrate half a victim's queue per visit, and a push wakes one parked
// worker only when none is searching, instead of broadcasting; a push
// and a take touch only the owner's deque, with no shared count.
// The pool adds Cilk's frames and joins on top: submitters join
// help-first (the goroutine calling RunCtx executes tasks until its
// root frame drains instead of parking), and ForDAC's range tasks.
package worksteal

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
	"threading/internal/tracez"
)

// task is one schedulable unit, in one of two shapes: a plain closure
// (fn), the cilk_spawn form; or a loop-range descriptor (body over
// [lo, hi) at grain), the ForDAC form — so chunk spawns carry their
// range in the record instead of in a per-chunk closure. The task's
// own frame and context are embedded, and finished records are
// recycled through the executing worker's arena in the task core
// (Alloc / worker.recycle), so in steady state a spawn allocates
// nothing: the record cycles between the arena and the deques for the
// life of the pool.
type task struct {
	fn     func(*Ctx)           // closure body; nil for range tasks
	body   func(*Ctx, int, int) // range body; nil for closure tasks
	lo, hi int                  // range bounds (body != nil)
	grain  int                  // range grain (body != nil)
	lazy   bool                 // range runs under the lazy partitioner
	parent *frame
	reg    *sched.Region
	own    frame
	ctx    Ctx
}

// frame tracks the outstanding children of one task invocation. Sync
// blocks until pending returns to zero.
type frame struct {
	pending atomic.Int64
	waiter  atomic.Pointer[sched.Parker]
}

// childDone signals completion of one child, waking a blocked Sync if
// this was the last one.
func (f *frame) childDone() {
	if f.pending.Add(-1) == 0 {
		if p := f.waiter.Load(); p != nil {
			p.Unpark()
		}
	}
}

// worker is one scheduler participant, animating its slot of the
// pool's task core: a dedicated pool worker, or a help-first helper
// animated by a goroutine that called RunCtx (ownership of a helper
// slot is transferred by the helperBusy CAS).
type worker struct {
	*sched.TaskSlot[task]
	id   int
	pool *Pool
	st   *sched.Shard
	help bool         // a help-first submitter slot, not a dedicated worker
	ring *tracez.Ring // nil unless the pool was built WithTracer
}

// MaxHelpers is the number of help-first submitter slots per pool:
// up to this many concurrent RunCtx calls execute tasks themselves
// (with stealable deques and WorkerIDs in [Workers(),
// Workers()+MaxHelpers)); further concurrent submitters fall back to
// submit-and-park.
const MaxHelpers = 4

// config is a Pool's resolved Option values.
type config struct {
	// DequeKind selects the deque implementation for every worker.
	// The default, deque.KindChaseLev, models Cilk Plus; use
	// deque.KindLocked to model the Intel OpenMP task runtime.
	DequeKind deque.Kind
	// Partitioner selects how ForDAC distributes loop iterations; the
	// default, Eager, is the paper-faithful cilk_for decomposition.
	Partitioner Partitioner
	// Tracer, when non-nil, receives per-worker scheduler events
	// (task/chunk spans, spawns, steals, parks). Nil disables tracing;
	// the hot paths then pay only a nil check.
	Tracer *tracez.Tracer
	// PinWorkers locks each dedicated worker goroutine to an OS thread
	// (runtime.LockOSThread) for the life of the pool, preventing the
	// Go scheduler from migrating workers between threads mid-run.
	// Help-first helper slots are animated by submitter goroutines and
	// are never pinned.
	PinWorkers bool
}

// Option configures a Pool at construction. It is an interface
// (rather than a bare func type) so the root threading package can
// define combined option values that satisfy several layers' option
// types at once.
type Option interface{ applyPool(*config) }

type poolOption func(*config)

func (f poolOption) applyPool(o *config) { f(o) }

// WithDequeKind selects the deque backend for every worker: the
// lock-free Chase-Lev deque (Cilk Plus) or the lock-based deque
// (Intel OpenMP task runtime).
func WithDequeKind(k deque.Kind) Option {
	return poolOption(func(o *config) { o.DequeKind = k })
}

// WithPartitioner selects the ForDAC loop partitioner: Eager for the
// paper-faithful up-front decomposition, Lazy for demand-driven
// splitting.
func WithPartitioner(p Partitioner) Option {
	return poolOption(func(o *config) { o.Partitioner = p })
}

// WithTracer attaches a scheduler-event tracer: every worker and
// help-first helper slot records its events into the tracer's ring for
// its WorkerID. A nil tracer leaves tracing disabled.
func WithTracer(tr *tracez.Tracer) Option {
	return poolOption(func(o *config) { o.Tracer = tr })
}

// WithPinnedWorkers locks each dedicated worker goroutine to an OS
// thread for the life of the pool, so workers keep their caches and
// (on NUMA machines) their memory locality instead of migrating
// between threads at the Go scheduler's whim. Help-first helper slots
// are animated by submitter goroutines and are never pinned.
func WithPinnedWorkers(on bool) Option {
	return poolOption(func(o *config) { o.PinWorkers = on })
}

// defaultSpin is how many failed find-work rounds a worker or a Sync
// yields through before it blocks. It stays a round count, unlike the
// fork-join team's sched.IdleSpin: a pool worker's round is a sweep
// over every victim's deque, and while it searches Push wakes nobody,
// so spinning for a time budget instead (100 us) kept workers
// sweeping, suppressed the wakes and slowed fine-grained loops
// (loops-fine steal p50 +15 % on 2 vCPUs). The team's waits only read one word.
const defaultSpin = 32

// Pool is a work-stealing scheduler with a fixed set of workers.
// Create one with NewPool, submit roots with Run, release the workers
// with Close.
type Pool struct {
	victims []*worker // every slot of core: workers, then helpers
	workers []*worker
	helpers []*worker // help-first submitter slots, stealable like workers
	core    *sched.TaskCore[task]
	stats   *sched.Stats
	part    Partitioner

	helperBusy [MaxHelpers]atomic.Bool
	closed     atomic.Bool
	async      sched.AsyncGroup // in-flight SubmitCtx tasks, joined by Quiesce

	wg sync.WaitGroup
}

// NewPool starts a scheduler with n workers. n must be at least 1.
func NewPool(n int, options ...Option) *Pool {
	if n < 1 {
		panic("worksteal: pool needs at least 1 worker")
	}
	var opts config
	for _, o := range options {
		o.applyPool(&opts)
	}
	p := &Pool{
		victims: make([]*worker, n+MaxHelpers),
		stats:   sched.NewStats(n + MaxHelpers),
		part:    opts.Partitioner,
	}
	p.core = sched.NewTaskCore[task](n+MaxHelpers, opts.DequeKind, p.stats, opts.Tracer, true)
	for i := range p.victims {
		w := &worker{
			TaskSlot: p.core.Slot(i),
			id:       i,
			pool:     p,
			st:       p.stats.Shard(i),
			help:     i >= n,
			ring:     opts.Tracer.Ring(i),
		}
		if w.help {
			opts.Tracer.Label(i, "ws-h"+strconv.Itoa(i-n))
		} else {
			opts.Tracer.Label(i, "ws-w"+strconv.Itoa(i))
		}
		p.victims[i] = w
	}
	p.workers, p.helpers = p.victims[:n], p.victims[n:]
	for _, w := range p.workers {
		p.wg.Add(1)
		go func() {
			if opts.PinWorkers {
				// Pin for the goroutine's whole life; the lock dies with
				// the goroutine when loop returns at Close, so no
				// UnlockOSThread pairing is needed.
				runtime.LockOSThread()
			}
			// pprof label the worker goroutine so CPU profiles split by
			// runtime and worker, not one anonymous goroutine blob.
			pprof.Do(context.Background(), pprof.Labels(
				"runtime", "worksteal", "worker", strconv.Itoa(w.id),
			), func(context.Context) { w.loop() })
		}()
	}
	return p
}

// recycle resets t and returns it to the executing worker's arena.
//
// Ownership rule: a record is recycled by whichever worker *ran* it
// (return-to-executor), after run has signalled the parent. At that
// point no deque can yield t again — the take that delivered it
// already advanced past its slot, and a stale Chase-Lev ring slot is
// never dereferenced without winning the top CAS, which can no longer
// name t's index. The only possible straggler is a child's childDone
// still loading t.own.waiter; the frame's fields are accessed
// atomically for the record's entire life (recycle resets the waiter
// with an atomic store and never rewrites the frame wholesale), so
// that straggler at worst spuriously unparks the record's next owner,
// whose park loops all recheck their condition.
func (w *worker) recycle(t *task) {
	t.fn, t.body = nil, nil // don't pin dead closures through the arena
	t.parent, t.reg = nil, nil
	t.ctx = Ctx{}
	t.own.waiter.Store(nil) // pending already drained by the implicit sync
	w.Free(t)
}

// Workers reports the number of dedicated workers in the pool (not
// counting help-first submitter slots).
func (p *Pool) Workers() int { return len(p.workers) }

// ParkedWorkers reports how many dedicated workers are currently
// parked (or committed to parking). With PendingWork and Workers it
// gives the metrics stall watchdog its pending-work-while-parked
// view; like the wake-up protocol itself, the value is advisory and
// may be momentarily stale.
func (p *Pool) ParkedWorkers() int { return p.core.Parked() }

// Partitioner reports the ForDAC loop partitioner the pool was
// configured with.
func (p *Pool) Partitioner() Partitioner { return p.part }

// Stats returns a snapshot of the scheduler counters.
func (p *Pool) Stats() sched.Snapshot { return p.stats.Snapshot() }

// Close shuts the pool down. Outstanding Run calls must have returned;
// Close waits for all workers to exit. The pool must not be used
// afterwards.
func (p *Pool) Close() {
	p.closed.Store(true)
	p.core.WakeAll()
	p.wg.Wait()
}

// Run submits root as a task and blocks until it — and every task it
// transitively spawned — has completed. If any task panicked, Run
// re-panics with the first recorded panic value. Multiple Runs may be
// issued concurrently.
func (p *Pool) Run(root func(*Ctx)) {
	if err := p.RunCtx(context.Background(), root); err != nil {
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			panic(fmt.Sprintf("worksteal: task panicked: %v", pe.Value))
		}
		panic(fmt.Sprintf("worksteal: run failed: %v", err))
	}
}

// RunCtx is Run with cooperative cancellation and structured error
// propagation. Cancellation (including deadline expiry) is observed
// at task boundaries and at ForDAC chunk boundaries: in-flight task
// bodies run to completion, queued tasks are drained without
// executing their bodies, and the pool remains reusable — concurrent
// Runs are unaffected, since each Run carries its own cancellation
// region. The returned error is the first failure: the context's
// error, or a *sched.PanicError wrapping the first panic recovered
// from any task of this run (a panic also cancels the run's remaining
// tasks). A nil return means every task ran to completion.
//
// The submitting goroutine joins help-first: it claims a helper
// worker slot, executes the root itself (so the root's spawns land on
// a stealable deque without a trip through the shared inbox), and
// keeps executing tasks until its root frame drains. Only when all
// MaxHelpers slots are taken by concurrent Runs does it fall back to
// enqueueing the root and parking.
func (p *Pool) RunCtx(ctx context.Context, root func(*Ctx)) error {
	if p.closed.Load() {
		panic("worksteal: Run on closed pool")
	}
	reg := sched.NewRegion(ctx)
	f := &frame{}
	f.pending.Store(1)
	if hw := p.claimHelper(); hw != nil {
		// The root task comes from the claimed helper's arena — the
		// helper goroutine owns that freelist for the duration — so a
		// steady-state Run allocates only its region and root frame.
		t := hw.Alloc()
		t.fn, t.parent, t.reg = root, f, reg
		hw.ring.Record(tracez.KindHelpClaim, int64(hw.id-len(p.workers)), 0)
		hw.run(t)
		hw.syncFrame(f)
		p.releaseHelper(hw)
	} else {
		p.core.Submit(&task{fn: root, parent: f, reg: reg})
		if f.pending.Load() != 0 {
			var pk sched.Parker
			f.waiter.Store(&pk)
			for f.pending.Load() != 0 {
				pk.Park()
			}
			f.waiter.Store(nil)
		}
	}
	return reg.Finish()
}

// claimHelper acquires a free help-first worker slot, or nil if all
// MaxHelpers are in use. The CAS transfers deque ownership to the
// claiming goroutine.
func (p *Pool) claimHelper() *worker {
	for i := range p.helperBusy {
		if p.helperBusy[i].CompareAndSwap(false, true) {
			return p.helpers[i]
		}
	}
	return nil
}

// releaseHelper returns a helper slot. The caller must be between
// tasks, which (by the sync-before-return invariant) means the
// helper's deque is empty.
func (p *Pool) releaseHelper(hw *worker) {
	p.helperBusy[hw.id-len(p.workers)].Store(false)
}

// loop is the worker main loop: find work, else search for
// defaultSpin rounds, else park until a push or Close wakes it.
func (w *worker) loop() {
	defer w.pool.wg.Done()
	idle := 0
	for {
		if t := w.Find(); t != nil {
			w.Search(false)
			idle = 0
			w.run(t)
			continue
		}
		w.Search(true)
		if idle++; idle < defaultSpin {
			runtime.Gosched()
			continue
		}
		if w.pool.closed.Load() {
			w.Search(false)
			return
		}
		idle = 0
		w.Park(func() bool { return !w.pool.closed.Load() })
	}
}

// syncFrame executes tasks until f's pending count drains, parking on
// f's waiter as a last resort. It is the shared help-while-waiting
// loop behind Ctx.Sync and the help-first join in RunCtx: the waiting
// goroutine keeps executing other tasks (its own deque first, then
// steals), so a join deep in a recursive decomposition does not idle
// the core.
func (w *worker) syncFrame(f *frame) {
	idle := 0
	for f.pending.Load() > 0 {
		if t := w.Find(); t != nil {
			idle = 0
			w.run(t)
			continue
		}
		idle++
		if idle < defaultSpin {
			runtime.Gosched()
			continue
		}
		// Nothing runnable anywhere: block until the last child
		// signals. Children of this frame may be executing on other
		// workers, so there is legitimately nothing to help with.
		var pk sched.Parker
		f.waiter.Store(&pk)
		if f.pending.Load() > 0 {
			w.st.CountPark()
			w.ring.Record(tracez.KindPark, 0, 0)
			pk.Park()
			w.ring.Record(tracez.KindUnpark, 0, 0)
		}
		f.waiter.Store(nil)
		idle = 0
	}
}

// run executes t with its embedded frame, waits for its children (the
// implicit sync at task return, as in Cilk), signals the parent, and
// recycles the record into w's arena. A task whose run has been
// canceled skips its body but still syncs and signals, so queued work
// drains and frames resolve (and their records are still reclaimed).
func (w *worker) run(t *task) {
	w.st.CountTask()
	if w.help {
		w.st.CountHelpFirst()
	}
	w.ring.Record(tracez.KindTaskStart, t.reg.TraceID(), 0)
	if w.ring != nil && trace.IsEnabled() {
		defer trace.StartRegion(context.Background(), "worksteal.task").End()
	}
	t.ctx = Ctx{pool: w.pool, worker: w, frame: &t.own, reg: t.reg}
	c := &t.ctx
	if !t.reg.Canceled() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.reg.RecordPanic(r)
				}
			}()
			if t.body != nil {
				// Range task: re-enter the partitioner loop. The arena'd
				// record is the chunk descriptor; no per-chunk closure
				// ever existed.
				if t.lazy {
					c.forLazy(t.lo, t.hi, t.grain, t.body)
				} else {
					c.forDAC(t.lo, t.hi, t.grain, t.body)
				}
			} else {
				t.fn(c)
			}
		}()
	}
	c.Sync() // implicit sync: children must not outlive the task
	w.ring.Record(tracez.KindTaskEnd, 0, 0)
	t.parent.childDone()
	w.recycle(t) // nothing can reach t now; see recycle's safety note
}
