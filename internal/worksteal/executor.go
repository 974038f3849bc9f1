package worksteal

import (
	"context"
	"errors"
)

// ErrClosed is returned by SubmitCtx on a closed pool.
var ErrClosed = errors.New("worksteal: pool is closed")

// The methods in this file make *Pool satisfy the shard.Executor
// submission surface, the runtime-neutral interface the shard.Resolver
// routes over. They are thin adapters over RunCtx/ForDAC: the pool's
// help-first join, partitioner, and cancellation semantics all apply
// unchanged.

// ParallelForCtx runs body over every chunk of [lo, hi) under the
// pool's configured partitioner and blocks until the loop completes.
// A grain < 1 selects DefaultGrain. The submitting goroutine joins
// help-first, exactly as with RunCtx.
func (p *Pool) ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error {
	if lo >= hi {
		return ctx.Err()
	}
	return p.RunCtx(ctx, func(c *Ctx) {
		c.ForDAC(lo, hi, grain, func(_ *Ctx, l, h int) { body(l, h) })
	})
}

// ParallelReduceCtx runs a chunked reduction over [lo, hi): body folds
// each assigned chunk into that worker's private accumulator (seeded
// with identity), and combine folds the per-worker partials after the
// loop joins. combine must be associative and commutative. On error
// the identity is returned.
func (p *Pool) ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	if lo >= hi {
		return identity, ctx.Err()
	}
	r := NewReducer(p, identity, combine)
	err := p.RunCtx(ctx, func(c *Ctx) {
		c.ForDAC(lo, hi, grain, func(cc *Ctx, l, h int) {
			v := r.View(cc)
			*v = body(l, h, *v)
		})
	})
	if err != nil {
		return identity, err
	}
	return r.Value(), nil
}

// SubmitCtx schedules fn as an asynchronous root task and returns
// without waiting for it. The task runs with the full scheduler
// underneath it (it could itself call RunCtx); its completion and
// first failure are observed through Quiesce. The caller must Quiesce
// before Close.
func (p *Pool) SubmitCtx(ctx context.Context, fn func()) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p.async.Add()
	go func() {
		defer p.async.Done()
		p.async.Record(p.RunCtx(ctx, func(*Ctx) { fn() }))
	}()
	return nil
}

// Quiesce blocks until every task submitted with SubmitCtx has
// completed and returns the first failure recorded since the previous
// Quiesce. Synchronous Run/RunCtx calls are unaffected — they already
// join before returning.
func (p *Pool) Quiesce() error { return p.async.Wait() }

// PendingWork reports the tasks queued on the pool's deques and inbox,
// not yet taken; advisory — the signal a least-loaded balancer reads
// when choosing a shard.
func (p *Pool) PendingWork() int64 { return p.core.Pending() }
