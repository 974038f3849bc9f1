package models

import (
	"context"
	"fmt"
	"strings"

	"threading/internal/sched"
	"threading/internal/shard"
)

// NewExecutor is the concurrent-submission counterpart of New: it
// builds the named model's runtime and returns it behind the
// shard.Executor interface instead of the Model one. Model methods
// are documented as not safe for concurrent calls — the Model layer
// exists to reproduce the paper's single-benchmark-loop semantics —
// whereas every Executor implementation accepts concurrent
// submitters: a worksteal.Pool runs concurrent loops help-first (each
// submitter claims one of MaxHelpers slots), a forkjoin.Team runs the
// loop that finds it free as a team region and any loop that finds it
// busy as a serialized region on the caller (a team of one, as in
// OpenMP), and a shard.Resolver routes concurrent submitters across
// shards by its balancer. That makes NewExecutor the constructor a server
// (cmd/threadserve) uses to put one shared runtime behind many
// request goroutines.
//
// Names resolve as in New, which is built on this function: the six
// base names, plus the "sharded:" prefix (or WithShardCount on a
// shardable base) which returns the routing resolver itself. The
// thread-per-chunk C++ models have no persistent runtime; they are
// adapted with a stateless executor that creates threads (cpp_thread)
// or async tasks (cpp_async) per call, so their per-operation spawn
// cost shows up in service latency exactly as it does in the paper's
// wall-time numbers. Loop grain is chosen per call via the Executor
// interface, so WithGrain is not consumed here.
//
// Close releases the runtime (Quiesce first, as with any Executor).
func NewExecutor(name string, threads int, opts ...Option) (shard.Executor, error) {
	return newExecutor(name, threads, resolve(opts))
}

// newExecutor is the one place a runtime is built from resolved
// options; New names what it returns.
func newExecutor(name string, threads int, cfg config) (shard.Executor, error) {
	if threads < 1 {
		return nil, fmt.Errorf("models: thread count %d < 1", threads)
	}
	if base, ok := strings.CutPrefix(name, ShardedPrefix); ok || cfg.shards != 0 && shardable(name) {
		return newShardResolver(base, threads, cfg)
	}
	switch name {
	case CilkFor, CilkSpawn:
		return newPool(threads, cfg), nil
	case OMPFor, OMPTask:
		return newTeam(threads, cfg), nil
	case CPPThread:
		return &chunkExecutor{m: newCPPThread(threads, cfg.tracer)}, nil
	case CPPAsync:
		return &chunkExecutor{m: newCPPAsync(threads, cfg.tracer)}, nil
	}
	return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
}

// chunkExecutor adapts a thread-per-chunk model (cpp_thread,
// cpp_async) to the Executor surface. The underlying models hold no
// mutable scheduler state — every loop creates fresh threads or async
// tasks and joins them before returning — so concurrent calls are
// independent by construction. Submissions run on a fresh goroutine
// each (the family's thread-per-task semantics) tracked by an
// AsyncGroup for Quiesce. The per-call grain is ignored: chunking is
// fixed at one chunk per configured thread, exactly as the paper's
// manual-chunking C++ versions do.
type chunkExecutor struct {
	m     Model
	async sched.AsyncGroup
}

var _ shard.Executor = (*chunkExecutor)(nil)

func (e *chunkExecutor) ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error {
	if hi <= lo {
		return ctx.Err()
	}
	return e.m.ParallelForCtx(ctx, hi-lo, func(l, h int) { body(l+lo, h+lo) })
}

func (e *chunkExecutor) ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	if hi <= lo {
		return identity, ctx.Err()
	}
	return e.m.ParallelReduceCtx(ctx, hi-lo, identity,
		func(l, h int, acc float64) float64 { return body(l+lo, h+lo, acc) },
		combine)
}

func (e *chunkExecutor) SubmitCtx(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.async.Add()
	go func() {
		defer e.async.Done()
		defer func() {
			if r := recover(); r != nil {
				e.async.Record(sched.NewPanicError(r))
			}
		}()
		fn()
	}()
	return nil
}

func (e *chunkExecutor) Quiesce() error { return e.async.Wait() }

func (e *chunkExecutor) Close() { e.m.Close() }
