// Negative ctxdrop cases: nothing in this file may be reported.
package a

import (
	"context"

	"threading/internal/models"
)

// The Ctx variant is used: no drop.
func propagates(ctx context.Context, m models.Model, data []float64) error {
	return m.ParallelForCtx(ctx, len(data), func(lo, hi int) {})
}

// No context in scope: the plain-wrapper pattern (Team.Parallel over
// ParallelCtx, Pool.Run over RunCtx) is exactly this and
// must stay legal.
func wrapper(n int) int {
	return doWork(n)
}

// An unnamed (or blank) context parameter cannot be forwarded, so the
// plain call is not a drop.
func blankCtx(_ context.Context, n int) int {
	return doWork(n)
}

// A callee without a Ctx sibling is fine even with a context around.
func noSibling(ctx context.Context, m models.Model) {
	m.Close()
	_ = ctx
}

// A fresh function declaration does not inherit an outer context, and
// calls after the context-taking function ends are unaffected.
func after(n int) int {
	return doWork(n)
}
