package worksteal

import (
	"threading/internal/sched"
	"threading/internal/tracez"
)

// Ctx is the handle a task uses to interact with the scheduler. A Ctx
// is valid only for the duration of the task invocation it was passed
// to and must not be retained or shared across tasks.
type Ctx struct {
	pool   *Pool
	worker *worker
	frame  *frame
	reg    *sched.Region
}

// Pool returns the scheduler this context belongs to.
func (c *Ctx) Pool() *Pool { return c.pool }

// WorkerID returns the index of the worker executing the task, in
// [0, Pool().Workers()+MaxHelpers): dedicated workers occupy
// [0, Workers()), help-first submitter slots the rest. Useful for
// per-worker reducer views.
func (c *Ctx) WorkerID() int { return c.worker.id }

// Canceled reports whether the enclosing Run has been canceled — by
// the context passed to RunCtx or by a panic in another task of the
// run. Long-running task bodies can poll it to stop early; the
// scheduler itself checks it at every task and chunk boundary.
func (c *Ctx) Canceled() bool { return c.reg.Canceled() }

// Spawn schedules fn as a child task of the current one, equivalent to
// cilk_spawn. The child may run on any worker; the current task
// continues immediately. Children are joined by Sync, or implicitly
// when the task returns. The child inherits the Run's cancellation
// region, so spawning into a canceled run queues tasks that drain
// without executing.
func (c *Ctx) Spawn(fn func(*Ctx)) {
	t := c.worker.Alloc()
	t.fn, t.parent, t.reg = fn, c.frame, c.reg
	c.push(t)
}

// spawnRange schedules body over [lo, hi) as a child task without
// materializing a closure: the arena'd task record itself is the
// chunk descriptor (run re-enters the partitioner loop from it), so
// ForDAC decomposition allocates nothing in steady state.
func (c *Ctx) spawnRange(lo, hi, grain int, lazy bool, body func(cc *Ctx, l, h int)) {
	t := c.worker.Alloc()
	t.body, t.lo, t.hi, t.grain, t.lazy = body, lo, hi, grain, lazy
	t.parent, t.reg = c.frame, c.reg
	c.push(t)
}

// push enqueues a prepared child task on the executing worker's deque
// with the shared spawn bookkeeping.
func (c *Ctx) push(t *task) {
	c.frame.pending.Add(1)
	c.worker.st.CountSpawn()
	c.worker.ring.Record(tracez.KindSpawn, 0, 0)
	c.worker.Push(t)
}

// Sync blocks until every child spawned by this task has completed,
// equivalent to cilk_sync. While waiting, the worker keeps executing
// other tasks (its own deque first, then steals), so a Sync deep in a
// recursive decomposition does not idle the core.
func (c *Ctx) Sync() {
	c.worker.syncFrame(c.frame)
}
