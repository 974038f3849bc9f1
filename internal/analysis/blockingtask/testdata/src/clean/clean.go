// Negative fixture: compute-only tasks, buffered channels, blocking
// on thread-per-task APIs and in a team's submitted function,
// goroutines launched from tasks, and blocking outside any task are
// all fine.
package clean

import (
	"context"
	"sync"
	"time"

	"threading/internal/forkjoin"
	"threading/internal/futures"
	"threading/internal/worksteal"
)

// Pure compute: nothing to report.
func compute(p *worksteal.Pool) {
	_ = p.ParallelForCtx(context.Background(), 0, 1024, 0, func(l, h int) {
		s := 0.0
		for i := l; i < h; i++ {
			s += float64(i)
		}
		_ = s
	})
}

// Buffered channels do not park the worker at this occupancy.
func buffered(p *worksteal.Pool) {
	results := make(chan int, 64)
	_ = p.SubmitCtx(context.Background(), func() {
		results <- 1
	})
}

// futures.Async is thread-per-task: blocking costs a goroutine, not
// a pool lane.
func threadPerTask() {
	f := futures.Async(futures.LaunchAsync, func() (int, error) {
		time.Sleep(time.Millisecond)
		return 1, nil
	})
	_, _ = f.Get()
}

// Team.SubmitCtx runs fn on a goroutine of its own, not on a team
// member: a blocked fn costs a goroutine, not a member.
func teamSubmit(t *forkjoin.Team) {
	_ = t.SubmitCtx(context.Background(), func() {
		var wg sync.WaitGroup
		wg.Wait()
	})
}

// A goroutine launched from the task blocks its own goroutine, not
// the worker that runs the task.
func fireAndForget(p *worksteal.Pool) {
	_ = p.SubmitCtx(context.Background(), func() {
		go time.Sleep(time.Millisecond)
	})
}

// Blocking outside any task submission is not this analyzer's
// business.
func plainSleep() {
	time.Sleep(time.Millisecond)
}
