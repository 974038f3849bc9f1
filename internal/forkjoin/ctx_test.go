package forkjoin

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"threading/internal/sched"
)

func TestParallelCtxCancelAndReuse(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	err := team.ParallelCtx(ctx, func(tc *Ctx) {
		tc.ForRange(Static, 0, 16, func(lo, hi int) {
			once.Do(cancel)
			<-ctx.Done()
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The team must remain fully usable after a canceled region.
	var n atomic.Int64
	team.Parallel(func(tc *Ctx) {
		tc.ForRange(Static, 0, 100, func(lo, hi int) { n.Add(int64(hi - lo)) })
	})
	if n.Load() != 100 {
		t.Fatalf("after cancel, ForRange covered %d of 100", n.Load())
	}
}

func TestParallelCtxPanicTyped(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()

	err := team.ParallelCtx(context.Background(), func(tc *Ctx) {
		tc.ForRange(Static, 0, 16, func(lo, hi int) {
			if lo == 0 {
				panic("region-boom")
			}
		})
	})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if pe.Value != "region-boom" {
		t.Fatalf("PanicError.Value = %v, want region-boom", pe.Value)
	}
}

func TestParallelCtxTaskPanicTyped(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()

	err := team.ParallelCtx(context.Background(), func(tc *Ctx) {
		tc.Master(func() {
			tc.Task(func(*Ctx) { panic("task-boom") })
			tc.Taskwait()
		})
	})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if pe.Value != "task-boom" {
		t.Fatalf("PanicError.Value = %v, want task-boom", pe.Value)
	}
}

func TestNewTeamOptions(t *testing.T) {
	team := NewTeam(2, WithCentralBarrier(), WithSchedule(Dynamic(4)))
	defer team.Close()

	if team.DefaultSchedule().Kind != ScheduleDynamic {
		t.Fatalf("DefaultSchedule = %v, want dynamic", team.DefaultSchedule().Kind)
	}
	var n atomic.Int64
	team.Parallel(func(tc *Ctx) {
		tc.ForRange(team.DefaultSchedule(), 0, 64, func(lo, hi int) { n.Add(int64(hi - lo)) })
	})
	if n.Load() != 64 {
		t.Fatalf("covered %d of 64", n.Load())
	}
}
