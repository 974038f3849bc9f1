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
// Work distribution is demand-driven end to end: thieves migrate half
// a victim's queue per visit (deque.StealHalf), submitters join
// help-first (the goroutine calling RunCtx executes tasks until its
// root frame drains instead of parking), and wake-ups are throttled
// through a pending-work counter instead of broadcast scans.
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
// recycled through the executing worker's freelist (worker.alloc /
// worker.recycle), so in steady state a spawn allocates nothing: the
// record cycles between the arena and the deques for the life of the
// pool.
type task struct {
	fn     func(*Ctx)           // closure body; nil for range tasks
	body   func(*Ctx, int, int) // range body; nil for closure tasks
	lo, hi int                  // range bounds (body != nil)
	grain  int                  // range grain (body != nil)
	lazy   bool                 // range runs under the lazy partitioner
	parent *frame
	reg    *sched.Region
	next   *task // freelist link while recycled
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

// stealBatch bounds how many tasks one steal visit can migrate.
const stealBatch = 16

// worker is one scheduler participant: a dedicated pool worker, or a
// help-first helper animated by a goroutine that called RunCtx.
//
// Layout: the fields above the pad are owner-only — touched solely by
// the goroutine animating the worker (for helper slots, ownership is
// transferred by the helperBusy CAS). parked and parker below the pad
// are written by other workers (unparkOne's CAS, Parker.Unpark) and
// would otherwise false-share with the owner's per-task deque and
// freelist accesses.
type worker struct {
	id   int
	pool *Pool
	dq   deque.Deque[task]
	rng  *sched.Rand
	st   *sched.Shard
	help bool         // a help-first submitter slot, not a dedicated worker
	ring *tracez.Ring // nil unless the pool was built WithTracer

	// free is the worker-local task arena: records recycled by run and
	// handed back out by alloc. Capped at maxFreeTasks; overflow spills
	// to the pool-wide list so records stolen cross-worker circulate
	// back to the spawners.
	free  *task
	nfree int

	// stealBuf is the scratch buffer for StealHalf visits. findWork
	// re-nils every slot it filled before returning, so a dead run's
	// tasks are not pinned — and recycled records are not kept
	// reachable — by a stale buffer entry.
	stealBuf [stealBatch]*task

	_      [sched.CacheLine]byte
	parker sched.Parker
	parked atomic.Bool
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
	// SpinBeforePark is how many failed find-work rounds a worker or
	// a Sync performs before blocking. Zero selects a default.
	SpinBeforePark int
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

// WithSpinBeforePark sets how many failed find-work rounds a worker
// or a Sync performs before blocking.
func WithSpinBeforePark(n int) Option {
	return poolOption(func(o *config) { o.SpinBeforePark = n })
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

const defaultSpin = 32

// Pool is a work-stealing scheduler with a fixed set of workers.
// Create one with NewPool, submit roots with Run, release the workers
// with Close.
type Pool struct {
	workers []*worker
	helpers []*worker           // help-first submitter slots, stealable like workers
	victims []*worker           // workers + helpers: the steal-sweep targets
	inbox   *deque.Locked[task] // overflow submissions; stolen by any worker
	stats   *sched.Stats
	spin    int
	part    Partitioner

	helperBusy [MaxHelpers]atomic.Bool
	closed     atomic.Bool
	async      sched.AsyncGroup // in-flight SubmitCtx tasks, joined by Quiesce

	// freeMu guards the pool-wide overflow freelist that worker arenas
	// spill to and refill from, so task records stolen cross-worker
	// (and hence recycled by the thief, not the spawner) circulate back
	// to whoever allocates next. Touched only when a local list runs
	// dry or overflows.
	freeMu    sync.Mutex
	freeList  *task
	freeCount int

	// Shared hot counters, each padded onto its own cache line: every
	// spawn and every take bumps pending, every idle transition bumps
	// searching or parkedCount — packed together (as they used to be)
	// the three lines' traffic collapses onto one contended line.
	_           [sched.CacheLine]byte
	pending     atomic.Int64 // queued-but-not-taken tasks (conservative)
	_           [sched.CacheLine - 8]byte
	searching   atomic.Int64 // workers in the idle find-work phase
	_           [sched.CacheLine - 8]byte
	parkedCount atomic.Int64 // workers currently parked (or about to)
	_           [sched.CacheLine - 8]byte

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
	spin := opts.SpinBeforePark
	if spin <= 0 {
		spin = defaultSpin
	}
	p := &Pool{
		workers: make([]*worker, n),
		helpers: make([]*worker, MaxHelpers),
		inbox:   deque.NewLocked[task](),
		stats:   sched.NewStats(n + MaxHelpers),
		spin:    spin,
		part:    opts.Partitioner,
	}
	newWorker := func(i int, help bool) *worker {
		w := &worker{
			id:   i,
			pool: p,
			dq:   deque.New[task](opts.DequeKind),
			rng:  sched.NewRand(uint64(i)*0x9E3779B9 + 1),
			st:   p.stats.Shard(i),
			help: help,
		}
		if opts.Tracer != nil {
			w.ring = opts.Tracer.Ring(i)
			if help {
				opts.Tracer.Label(i, "ws-h"+strconv.Itoa(i-n))
			} else {
				opts.Tracer.Label(i, "ws-w"+strconv.Itoa(i))
			}
		}
		return w
	}
	for i := range p.workers {
		p.workers[i] = newWorker(i, false)
	}
	for i := range p.helpers {
		p.helpers[i] = newWorker(n+i, true)
	}
	p.victims = append(append([]*worker{}, p.workers...), p.helpers...)
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

// maxFreeTasks caps each worker-local freelist; freeTransfer is the
// batch moved between a local list and the pool-wide overflow list;
// maxPoolFree caps the pool-wide list, beyond which records are
// dropped for the GC — the bound that keeps a spawn storm from
// hoarding memory forever.
const (
	maxFreeTasks = 256
	freeTransfer = 64
	maxPoolFree  = 4096
)

// alloc returns a task record from the worker's arena, refilling from
// the pool-wide overflow list when the local list is dry; a fresh heap
// allocation is the last resort (cold start, or churn beyond every
// cap). Only the goroutine animating w may call it.
func (w *worker) alloc() *task {
	if w.free == nil {
		w.refill()
	}
	if t := w.free; t != nil {
		w.free = t.next
		w.nfree--
		t.next = nil
		return t
	}
	return new(task)
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
	if w.nfree >= maxFreeTasks {
		w.spill()
	}
	t.next = w.free
	w.free = t
	w.nfree++
}

// refill moves up to freeTransfer records from the pool-wide list to
// w's. Batching keeps the shared lock off the per-spawn path: it is
// taken once per freeTransfer allocations at worst.
func (w *worker) refill() {
	p := w.pool
	p.freeMu.Lock()
	n := 0
	for n < freeTransfer && p.freeList != nil {
		t := p.freeList
		p.freeList = t.next
		t.next = w.free
		w.free = t
		n++
	}
	p.freeCount -= n
	p.freeMu.Unlock()
	w.nfree += n
}

// spill moves a freeTransfer batch from w's overfull local list to the
// pool-wide list, so a worker that executes far more than it spawns
// (the thief side of a steal-heavy run) hands records back to the
// spawners instead of hoarding them. When the pool-wide list is at
// capacity too, the batch is dropped for the GC.
func (w *worker) spill() {
	var head, tail *task
	n := 0
	for n < freeTransfer && w.free != nil {
		t := w.free
		w.free = t.next
		t.next = head
		if head == nil {
			tail = t
		}
		head = t
		n++
	}
	w.nfree -= n
	if head == nil {
		return
	}
	p := w.pool
	p.freeMu.Lock()
	if p.freeCount+n <= maxPoolFree {
		tail.next = p.freeList
		p.freeList = head
		p.freeCount += n
	}
	p.freeMu.Unlock()
}

// flushFree returns the hoard beyond a one-refill stash to the
// pool-wide list. Called on the park path (cold by definition): a
// thief that executed stolen tasks hands their records back to the
// spawning side as soon as it goes idle, instead of hoarding them
// until the maxFreeTasks cap forces a spill — without this, a
// steady spawner next to mostly-idle thieves re-allocates every
// record the thieves absorb until their hoards fill.
func (w *worker) flushFree() {
	for w.nfree > freeTransfer {
		w.spill()
	}
}

// Workers reports the number of dedicated workers in the pool (not
// counting help-first submitter slots).
func (p *Pool) Workers() int { return len(p.workers) }

// ParkedWorkers reports how many dedicated workers are currently
// parked (or committed to parking). With PendingWork and Workers it
// gives the metrics stall watchdog its pending-work-while-parked
// view; like the wake-up protocol itself, the value is advisory and
// may be momentarily stale.
func (p *Pool) ParkedWorkers() int { return int(p.parkedCount.Load()) }

// Partitioner reports the ForDAC loop partitioner the pool was
// configured with.
func (p *Pool) Partitioner() Partitioner { return p.part }

// Stats returns a snapshot of the scheduler counters.
func (p *Pool) Stats() sched.Snapshot { return p.stats.Snapshot() }

// ResetStats zeroes the scheduler counters.
func (p *Pool) ResetStats() { p.stats.Reset() }

// Close shuts the pool down. Outstanding Run calls must have returned;
// Close waits for all workers to exit. The pool must not be used
// afterwards.
func (p *Pool) Close() {
	p.closed.Store(true)
	for _, w := range p.workers {
		w.parker.Unpark()
	}
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
		t := hw.alloc()
		t.fn, t.parent, t.reg = root, f, reg
		hw.ring.Record(tracez.KindHelpClaim, int64(hw.id-len(p.workers)), 0)
		hw.run(t)
		hw.syncFrame(f)
		p.releaseHelper(hw)
	} else {
		t := &task{fn: root, parent: f, reg: reg}
		p.pending.Add(1)
		p.inbox.PushBottom(t)
		p.signalWork()
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

// signalWork wakes one parked worker, unless some worker is already
// searching for work (it will find the new task on its sweep). This
// pending-counter wake throttle replaces the O(workers) unparkAll
// broadcast the scheduler used to perform on every submission.
func (p *Pool) signalWork() {
	if p.searching.Load() == 0 && p.parkedCount.Load() > 0 {
		p.unparkOne()
	}
}

// demand reports whether some worker is hungry — parked, or actively
// searching for work. It is the signal the Lazy partitioner polls at
// chunk boundaries to decide whether splitting off half its remaining
// range would feed anyone.
func (p *Pool) demand() bool {
	return p.searching.Load() > 0 || p.parkedCount.Load() > 0
}

// unparkOne wakes one parked worker, if any.
func (p *Pool) unparkOne() {
	for _, w := range p.workers {
		if w.parked.CompareAndSwap(true, false) {
			w.parker.Unpark()
			return
		}
	}
}

// loop is the worker main loop: pop own work, else steal, else park.
func (w *worker) loop() {
	defer w.pool.wg.Done()
	idle := 0
	searching := false
	setSearch := func(on bool) {
		if on != searching {
			searching = on
			if on {
				w.pool.searching.Add(1)
				// Out of local work: hand the free-record hoard beyond a
				// one-refill stash back to the pool list, so a thief's
				// recycled records reach the spawning side promptly.
				// flushFree is a no-op below the stash watermark, so this
				// costs one locked batch per ~freeTransfer recycles at
				// worst, not one per search episode.
				w.flushFree()
			} else {
				w.pool.searching.Add(-1)
			}
		}
	}
	for {
		t := w.findWork()
		if t != nil {
			setSearch(false)
			idle = 0
			w.run(t)
			continue
		}
		setSearch(true)
		idle++
		if idle < w.pool.spin {
			runtime.Gosched()
			continue
		}
		if w.pool.closed.Load() {
			setSearch(false)
			return
		}
		// Stop advertising as searching before publishing parked
		// state: a submitter that reads searching == 0 is then
		// guaranteed to read parkedCount > 0 and wake us, and the
		// pending re-check below closes the race against a submitter
		// that enqueued before our parked flag became visible.
		setSearch(false)
		w.pool.parkedCount.Add(1)
		w.parked.Store(true)
		if w.pool.pending.Load() > 0 || w.pool.closed.Load() {
			w.parked.Store(false)
			w.pool.parkedCount.Add(-1)
			idle = 0
			continue
		}
		w.flushFree()
		w.st.CountPark()
		w.ring.Record(tracez.KindPark, 0, 0)
		w.parker.Park()
		w.ring.Record(tracez.KindUnpark, 0, 0)
		w.parked.Store(false)
		w.pool.parkedCount.Add(-1)
		idle = 0
	}
}

// findWork returns the next task: own deque first, then the external
// inbox, then a randomized sweep over the other workers' (and active
// helpers') deques. A successful steal migrates up to half the
// victim's queue in one visit, keeping one task and requeueing the
// rest locally where other thieves can take them.
func (w *worker) findWork() *task {
	if t := w.dq.PopBottom(); t != nil {
		w.pool.pending.Add(-1)
		return t
	}
	if t := w.pool.inbox.Steal(); t != nil {
		w.pool.pending.Add(-1)
		if w.pool.pending.Load() > 0 {
			w.pool.signalWork()
		}
		return t
	}
	victims := w.pool.victims
	n := len(victims)
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := victims[(start+i)%n]
		if v == w {
			continue
		}
		k := v.dq.StealHalf(w.stealBuf[:])
		if k == 0 {
			continue
		}
		w.st.CountSteal()
		w.ring.Record(tracez.KindSteal, int64(v.id), int64(k))
		if k > 1 {
			w.st.CountBatchSteal(k)
			for j := 1; j < k; j++ {
				w.dq.PushBottom(w.stealBuf[j])
				w.stealBuf[j] = nil
			}
		}
		t := w.stealBuf[0]
		w.stealBuf[0] = nil
		w.pool.pending.Add(-1) // took k, requeued k-1
		if k > 1 || w.pool.pending.Load() > 0 {
			// The batch we just requeued (or work still queued
			// elsewhere) can feed another thief: propagate the wake.
			w.pool.signalWork()
		}
		return t
	}
	w.st.CountFailedSteal()
	w.ring.Record(tracez.KindStealFail, 0, 0)
	return nil
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
		if t := w.findWork(); t != nil {
			idle = 0
			w.run(t)
			continue
		}
		idle++
		if idle < w.pool.spin {
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
