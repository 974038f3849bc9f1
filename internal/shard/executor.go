// Package shard implements sharded multi-pool scheduling: a Resolver
// routes parallel loops, reductions, and task submissions across N
// shards — each an independent worksteal.Pool or forkjoin.Team — via a
// pluggable load balancer. Sharding bounds each steal-contention
// domain to one shard's workers: at high core counts a single
// work-stealing pool serializes chunk distribution through one
// stealing protocol (the contention the reproduced paper's flat-loop
// results foreshadow), whereas N shards steal only among themselves.
//
// The package follows the resolver shape of bxcodec/dbresolver — one
// facade resolving submissions across swappable backends behind
// swappable balancers — transplanted from database connections to
// schedulers. The Resolver is itself an Executor, so resolvers nest.
package shard

import (
	"context"

	"threading/internal/forkjoin"
	"threading/internal/worksteal"
)

// Executor is the runtime-neutral submission surface shared by
// worksteal.Pool, forkjoin.Team, and Resolver. It is the stable
// interface the root threading package re-exports: code written
// against it runs unchanged on a single pool, a single team, or a
// sharded resolver over any mix of the two.
//
// All range arguments are half-open [lo, hi). A grain < 1 selects the
// implementation's default chunking; a grain > 0 requests chunks of at
// most that many iterations (mapped to ForDAC grain on pools and the
// dynamic schedule's chunk size on teams).
type Executor interface {
	// ParallelForCtx runs body once per chunk of [lo, hi) and blocks
	// until the whole loop has completed. Cancellation is observed at
	// chunk boundaries; the first failure (context error or wrapped
	// panic) is returned.
	ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error
	// ParallelReduceCtx is ParallelForCtx with a float64 reduction:
	// body folds each chunk into an accumulator seeded with identity,
	// and combine — which must be associative and commutative — folds
	// the partial results. On error the identity is returned.
	ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
		body func(l, h int, acc float64) float64,
		combine func(a, b float64) float64) (float64, error)
	// SubmitCtx schedules fn to run asynchronously and returns without
	// waiting. Completion and failures are observed through Quiesce.
	SubmitCtx(ctx context.Context, fn func()) error
	// Quiesce blocks until every SubmitCtx task has completed and
	// returns the first failure recorded since the previous Quiesce.
	Quiesce() error
	// Close releases the executor's workers. Callers must Quiesce
	// first; the executor must not be used afterwards.
	Close()
}

// PendingWorker is implemented by executors that report their queued
// work: the records queued on the runtime's deques and inbox, not yet
// taken; advisory. The least-loaded balancer folds it into a shard's
// load alongside the Resolver's own in-flight count.
type PendingWorker interface {
	PendingWork() int64
}

// The three executors of the tentpole contract.
var (
	_ Executor = (*worksteal.Pool)(nil)
	_ Executor = (*forkjoin.Team)(nil)
	_ Executor = (*Resolver)(nil)

	_ PendingWorker = (*worksteal.Pool)(nil)
	_ PendingWorker = (*forkjoin.Team)(nil)
	_ PendingWorker = (*Resolver)(nil)
)
