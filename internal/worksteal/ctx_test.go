package worksteal

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"threading/internal/deque"
	"threading/internal/sched"
)

func TestRunCtxCancelAndReuse(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	err := pool.RunCtx(ctx, func(c *Ctx) {
		for i := 0; i < 16; i++ {
			c.Spawn(func(*Ctx) {
				once.Do(cancel)
				<-ctx.Done()
			})
		}
		c.Sync()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The pool must remain fully usable after a canceled run.
	var n atomic.Int64
	pool.Run(func(c *Ctx) {
		c.ForEach(0, 100, 0, func(_ *Ctx, i int) { n.Add(1) })
	})
	if n.Load() != 100 {
		t.Fatalf("after cancel, ForEach ran %d of 100", n.Load())
	}
}

func TestRunCtxPanicTyped(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	err := pool.RunCtx(context.Background(), func(c *Ctx) {
		c.Spawn(func(*Ctx) { panic("spawn-boom") })
		c.Sync()
	})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if pe.Value != "spawn-boom" {
		t.Fatalf("PanicError.Value = %v, want spawn-boom", pe.Value)
	}
}

func TestNewPoolOptions(t *testing.T) {
	pool := NewPool(2, WithDequeKind(deque.KindLocked))
	defer pool.Close()

	var n atomic.Int64
	pool.Run(func(c *Ctx) {
		c.ForEach(0, 64, 0, func(_ *Ctx, i int) { n.Add(1) })
	})
	if n.Load() != 64 {
		t.Fatalf("ran %d of 64", n.Load())
	}
}
