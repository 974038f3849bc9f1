package models

import (
	"context"

	"threading/internal/forkjoin"
	"threading/internal/sched"
)

// newTeam builds the fork-join team behind the omp models from the
// resolved model options.
func newTeam(threads int, cfg config) *forkjoin.Team {
	return forkjoin.NewTeam(threads,
		forkjoin.WithTracer(cfg.tracer),
		forkjoin.WithPinnedWorkers(cfg.pinned))
}

// ompTask is the OpenMP tasking configuration: the master member
// creates explicit tasks (one per manual chunk for loops, one per
// spawn for recursion) that are scheduled over lock-based per-member
// deques, modelling the Intel OpenMP task runtime.
type ompTask struct {
	team *forkjoin.Team
	n    int
}

func (m *ompTask) Name() string { return OMPTask }
func (m *ompTask) Threads() int { return m.n }

func (m *ompTask) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	k := m.n
	return m.team.ParallelCtx(ctx, func(tc *forkjoin.Ctx) {
		tc.Master(func() {
			for i := 0; i < k; i++ {
				lo, hi := chunkFor(n, k, i)
				if lo >= hi {
					continue
				}
				tc.Task(func(*forkjoin.Ctx) { body(lo, hi) })
			}
			tc.Taskwait()
		})
	})
}

func (m *ompTask) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	k := m.n
	partials := make([]float64, k)
	err := m.team.ParallelCtx(ctx, func(tc *forkjoin.Ctx) {
		tc.Master(func() {
			for i := 0; i < k; i++ {
				i := i
				lo, hi := chunkFor(n, k, i)
				partials[i] = identity
				if lo >= hi {
					continue
				}
				tc.Task(func(*forkjoin.Ctx) { partials[i] = body(lo, hi, identity) })
			}
			tc.Taskwait()
		})
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

// ompScope adapts forkjoin tasking to TaskScope. Each scope tracks
// the Ctx of the member executing its task; Sync maps to taskwait,
// which joins exactly the children of the current task — the same
// semantics OpenMP gives the paper's omp-task Fibonacci.
type ompScope struct {
	tc *forkjoin.Ctx
}

func (s *ompScope) Spawn(fn func(TaskScope)) {
	s.tc.Task(func(inner *forkjoin.Ctx) {
		fn(&ompScope{tc: inner})
	})
}

func (s *ompScope) Sync() { s.tc.Taskwait() }

func (m *ompTask) TaskRunCtx(ctx context.Context, root func(TaskScope)) error {
	return m.team.ParallelCtx(ctx, func(tc *forkjoin.Ctx) {
		tc.Master(func() {
			root(&ompScope{tc: tc})
			tc.Taskwait()
		})
	})
}

func (m *ompTask) SchedulerStats() (sched.Snapshot, bool) { return m.team.Stats(), true }

func (m *ompTask) Close() { m.team.Close() }
