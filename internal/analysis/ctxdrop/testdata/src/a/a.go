// Positive ctxdrop cases: every annotated line must be reported.
package a

import (
	"context"

	"threading/internal/forkjoin"
	"threading/internal/worksteal"
)

// A local sibling pair: doWork has a Ctx variant, so calling the
// plain form with a context in scope is a drop.
func doWork(n int) int { return n }

func doWorkCtx(ctx context.Context, n int) (int, error) { return n, ctx.Err() }

func localPair(ctx context.Context) {
	doWork(1) // want `context.Context is in scope but a.doWork is called; use doWorkCtx`
	_ = ctx
}

// A local method pair.
type runner struct{}

func (runner) Launch(n int) {}

func (runner) LaunchCtx(ctx context.Context, n int) error { return ctx.Err() }

func methodPair(ctx context.Context, r runner) {
	r.Launch(1) // want `context.Context is in scope but runner.Launch is called; use LaunchCtx`
	_ = ctx
}

// The real runtime surfaces: Team.Parallel and Pool.Run keep their
// Ctx siblings (the Model interface is Ctx-only, so it has nothing to
// drop).
func teamRegion(ctx context.Context, t *forkjoin.Team) {
	t.Parallel(func(tc *forkjoin.Ctx) {}) // want `Team.Parallel is called; use ParallelCtx`
}

func poolRun(ctx context.Context, p *worksteal.Pool) {
	p.Run(func(c *worksteal.Ctx) {}) // want `Pool.Run is called; use RunCtx`
}

// The context stays visible inside function literals.
func insideClosure(ctx context.Context, p *worksteal.Pool) func() {
	return func() {
		p.Run(func(c *worksteal.Ctx) {}) // want `Pool.Run is called; use RunCtx`
	}
}
