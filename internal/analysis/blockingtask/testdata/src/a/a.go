package a

import (
	"context"
	"sync"
	"time"

	"threading/internal/worksteal"
)

// Direct block inside a submitted task.
func direct(p *worksteal.Pool) {
	_ = p.SubmitCtx(context.Background(), func() { // want `task passed to Pool.SubmitCtx reaches time.Sleep`
		time.Sleep(time.Millisecond)
	})
}

// The blocking call is buried two calls deep: task -> throttle ->
// pace -> time.Sleep.
func pace() {
	time.Sleep(time.Millisecond)
}

func throttle() {
	pace()
}

func twoDeep(p *worksteal.Pool) {
	_ = p.SubmitCtx(context.Background(), func() { // want `task passed to Pool.SubmitCtx reaches time.Sleep \(via a.throttle -> a.pace\)`
		throttle()
	})
}

// A named function used as the task is followed like a literal.
func worker() {
	var wg sync.WaitGroup
	wg.Wait()
}

func namedTask(p *worksteal.Pool) {
	_ = p.SubmitCtx(context.Background(), worker) // want `task passed to Pool.SubmitCtx reaches sync.WaitGroup.Wait`
}

// Unbuffered channel operations inside a parallel-loop body.
func chanBody(p *worksteal.Pool) {
	done := make(chan struct{})
	_ = p.ParallelForCtx(context.Background(), 0, 8, 0, func(l, h int) { // want `task passed to Pool.ParallelForCtx reaches an unbuffered channel receive`
		<-done
	})
}

// Spawned subtasks inherit the check through Ctx.Spawn.
func nested(p *worksteal.Pool) {
	p.Run(func(c *worksteal.Ctx) {
		c.Spawn(func(cc *worksteal.Ctx) { // want `task passed to Ctx.Spawn reaches time.Sleep`
			time.Sleep(time.Microsecond)
		})
		c.Sync()
	})
}
