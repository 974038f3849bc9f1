// Positive lockspawn cases: every annotated line must be reported.
package a

import (
	"context"
	"sync"

	"threading/internal/models"
	"threading/internal/worksteal"
)

type server struct {
	mu    sync.Mutex
	state int
}

func (s *server) runLocked(p *worksteal.Pool) {
	s.mu.Lock()
	p.Run(func(c *worksteal.Ctx) { s.state++ }) // want `Pool.Run called while "s.mu" is held`
	s.mu.Unlock()
}

func (s *server) runCtxUnderDeferredUnlock(ctx context.Context, p *worksteal.Pool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.RunCtx(ctx, func(c *worksteal.Ctx) {}) // want `Pool.RunCtx called while "s.mu" is held`
}

func spawnUnderRLock(rw *sync.RWMutex, c *worksteal.Ctx) {
	rw.RLock()
	c.Spawn(func(cc *worksteal.Ctx) {}) // want `Ctx.Spawn called while "rw" is held`
	rw.RUnlock()
}

func taskRunUnderLock(ctx context.Context, mu *sync.Mutex, m models.Model) error {
	mu.Lock()
	defer mu.Unlock()
	return m.TaskRunCtx(ctx, func(s models.TaskScope) {}) // want `Model.TaskRunCtx called while "mu" is held`
}

func scopeSpawnUnderLock(mu *sync.Mutex, s models.TaskScope) {
	mu.Lock()
	defer mu.Unlock()
	s.Spawn(func(cs models.TaskScope) {}) // want `TaskScope.Spawn called while "mu" is held`
}

func forDACUnderLock(mu *sync.Mutex, c *worksteal.Ctx, n int) {
	mu.Lock()
	c.ForDAC(0, n, 0, func(cc *worksteal.Ctx, l, h int) {}) // want `Ctx.ForDAC called while "mu" is held`
	mu.Unlock()
}
