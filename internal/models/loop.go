package models

import (
	"context"
	"fmt"

	"threading/internal/sched"
	"threading/internal/shard"
)

// loopModel is every loop-only configuration: a shard.Executor with a
// name. The executor's own loop form is the model's loop form —
//
//	omp_for        a forkjoin.Team: work-sharing under the team's
//	               default (static) schedule, the paper's choice for
//	               the data-parallel comparison
//	cilk_for       a worksteal.Pool: divide-and-conquer splitting into
//	               spawned tasks, so chunk distribution travels through
//	               steals — the property the paper blames for
//	               cilk_for's losses on flat loops
//	sharded:<base> a shard.Resolver over teams or pools of the base's
//	               family
//
// so the Model surface adds no scheduling of its own: a loop entered
// here and the same loop entered through NewExecutor run the same
// code. Task trees are not expressible: the loop runtimes have no
// spawn/sync surface, and a resolver routes a submission whole to one
// shard (SubmitCtx) rather than joining across shards.
type loopModel struct {
	ex interface {
		shard.Executor
		Stats() sched.Snapshot
	}
	name    string
	threads int
	grain   int // pool-backed executors only; 0 selects the default heuristic
}

func (m *loopModel) Name() string { return m.name }
func (m *loopModel) Threads() int { return m.threads }

func (m *loopModel) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	return m.ex.ParallelForCtx(ctx, 0, n, m.grain, body)
}

func (m *loopModel) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	return m.ex.ParallelReduceCtx(ctx, 0, n, m.grain, identity, body, combine)
}

func (m *loopModel) TaskRunCtx(context.Context, func(TaskScope)) error {
	return fmt.Errorf("models: %s: %w", m.name, ErrTasksUnsupported)
}

func (m *loopModel) SchedulerStats() (sched.Snapshot, bool) { return m.ex.Stats(), true }

func (m *loopModel) Close() { m.ex.Close() }

// Resolver returns the shard.Resolver a sharded model runs on, for
// callers that manage shards directly (hot add/drain) or report per
// shard (ShardStats, NumShards, BalancerName). It reports false for
// every unsharded model.
func Resolver(m Model) (*shard.Resolver, bool) {
	lm, ok := m.(*loopModel)
	if !ok {
		return nil, false
	}
	res, ok := lm.ex.(*shard.Resolver)
	return res, ok
}
