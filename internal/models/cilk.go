package models

import (
	"context"

	"threading/internal/deque"
	"threading/internal/sched"
	"threading/internal/worksteal"
)

// newPool builds the lock-free pool behind the cilk models from the
// resolved model options. A nil tracer in cfg leaves tracing disabled.
func newPool(threads int, cfg config) *worksteal.Pool {
	return worksteal.NewPool(threads,
		worksteal.WithDequeKind(deque.KindChaseLev),
		worksteal.WithPartitioner(cfg.partitioner),
		worksteal.WithTracer(cfg.tracer),
		worksteal.WithPinnedWorkers(cfg.pinned))
}

// cilkSpawn is the Cilk Plus tasking configuration: cilk_spawn /
// cilk_sync over lock-free Chase-Lev deques. For flat loops it spawns
// one task per manual chunk (the paper's task versions of the data
// kernels); for recursion it exposes spawn/sync directly.
type cilkSpawn struct {
	pool *worksteal.Pool
	n    int
}

func (m *cilkSpawn) Name() string { return CilkSpawn }
func (m *cilkSpawn) Threads() int { return m.n }

func (m *cilkSpawn) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	k := m.n
	return m.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		for i := 0; i < k; i++ {
			lo, hi := chunkFor(n, k, i)
			if lo >= hi {
				continue
			}
			c.Spawn(func(*worksteal.Ctx) { body(lo, hi) })
		}
		c.Sync()
	})
}

func (m *cilkSpawn) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	k := m.n
	partials := make([]float64, k)
	err := m.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		for i := 0; i < k; i++ {
			i := i
			lo, hi := chunkFor(n, k, i)
			partials[i] = identity
			if lo >= hi {
				continue
			}
			c.Spawn(func(*worksteal.Ctx) { partials[i] = body(lo, hi, identity) })
		}
		c.Sync()
	})
	if err != nil {
		return identity, err
	}
	acc := identity
	for _, p := range partials {
		acc = combine(acc, p)
	}
	return acc, nil
}

// cilkScope adapts worksteal spawn/sync to TaskScope.
type cilkScope struct {
	c *worksteal.Ctx
}

func (s *cilkScope) Spawn(fn func(TaskScope)) {
	s.c.Spawn(func(inner *worksteal.Ctx) {
		fn(&cilkScope{c: inner})
	})
}

func (s *cilkScope) Sync() { s.c.Sync() }

func (m *cilkSpawn) TaskRunCtx(ctx context.Context, root func(TaskScope)) error {
	return m.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		root(&cilkScope{c: c})
		// The pool's implicit sync at task return joins stragglers.
	})
}

func (m *cilkSpawn) SchedulerStats() (sched.Snapshot, bool) { return m.pool.Stats(), true }

func (m *cilkSpawn) Close() { m.pool.Close() }
