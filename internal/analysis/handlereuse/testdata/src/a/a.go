package a

import (
	"context"

	"threading/internal/forkjoin"
	"threading/internal/futures"
	"threading/internal/models"
	"threading/internal/worksteal"
)

// Double Close: the second call is dead code (and would re-close the
// pool's internal channels at runtime).
func doubleClose() {
	p := worksteal.NewPool(2)
	p.Close()
	p.Close() // want `Close called on "p", which was already closed by the Close at`
}

// Submitting to a closed pool always fails.
func submitAfterClose(ctx context.Context) {
	p := worksteal.NewPool(2)
	p.Close()
	_ = p.SubmitCtx(ctx, func() {}) // want `SubmitCtx called on "p", which was already closed`
}

// Thread.Join panics on the second join.
func joinTwice(t *futures.Thread) {
	t.Join()
	t.Join() // want `Join called on "t", which was already joined or detached by the Join at`
}

// Join after Detach panics.
func joinAfterDetach(t *futures.Thread) {
	t.Detach()
	t.Join() // want `Join called on "t", which was already joined or detached by the Detach at`
}

// The Model interface carries the same Close discipline as the
// concrete pools behind it.
func modelAfterClose(ctx context.Context, m models.Model) error {
	if err := m.ParallelForCtx(ctx, 64, func(lo, hi int) {}); err != nil {
		return err
	}
	m.Close()
	return m.ParallelForCtx(ctx, 64, func(lo, hi int) {}) // want `ParallelForCtx called on "m", which was already closed`
}

// Teams too, including when the handle is a struct field.
type app struct{ team *forkjoin.Team }

func fieldHandle(a *app) {
	a.team.Close()
	a.team.Close() // want `Close called on "a.team", which was already closed`
}
