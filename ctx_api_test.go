package threading_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threading"
)

// TestCtxAPISurface exercises the context-aware public API end to
// end: cancellation, deadline, typed panic propagation, and the
// typed tasks-unsupported error — all through the root package.
func TestCtxAPISurface(t *testing.T) {
	m, err := threading.NewModel(threading.OMPFor, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Cancellation mid-loop returns context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	err = m.ParallelForCtx(ctx, 64, func(lo, hi int) {
		once.Do(cancel)
		<-ctx.Done()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ParallelForCtx err = %v, want context.Canceled", err)
	}

	// Panic propagation is typed and carries the recovered value.
	err = m.ParallelForCtx(context.Background(), 64, func(lo, hi int) {
		if lo == 0 {
			panic("root-boom")
		}
	})
	var pe *threading.PanicError
	if !errors.As(err, &pe) || pe.Value != "root-boom" {
		t.Fatalf("ParallelForCtx err = %v, want PanicError(root-boom)", err)
	}

	// Loop-only models refuse tasks with the typed sentinel.
	if err := m.TaskRunCtx(context.Background(), func(threading.TaskScope) {}); !errors.Is(err, threading.ErrTasksUnsupported) {
		t.Fatalf("TaskRunCtx err = %v, want ErrTasksUnsupported", err)
	}

	// The model remains usable after cancellation and panic.
	var n atomic.Int64
	if err := m.ParallelForCtx(context.Background(), 100, func(lo, hi int) {
		n.Add(int64(hi - lo))
	}); err != nil || n.Load() != 100 {
		t.Fatalf("reuse: err = %v, covered = %d", err, n.Load())
	}
}

func TestFunctionalOptions(t *testing.T) {
	team := threading.NewTeam(2, threading.WithSchedule(threading.Dynamic(8)),
		threading.WithTaskPolicy(threading.TaskDeferred))
	defer team.Close()
	pool := threading.NewPool(2, threading.WithStealBackend(threading.DequeLocked))
	defer pool.Close()
	dev := threading.NewDevice("d1", threading.WithUnits(2), threading.WithLatency(time.Microsecond))
	defer dev.Close()

	if dev.Units() != 2 {
		t.Fatalf("Units = %d, want 2", dev.Units())
	}
	var n atomic.Int64
	if err := team.ParallelCtx(context.Background(), func(tc *threading.TeamCtx) {
		tc.ForRange(team.DefaultSchedule(), 0, 32, func(lo, hi int) { n.Add(int64(hi - lo)) })
	}); err != nil || n.Load() != 32 {
		t.Fatalf("team: err = %v, covered = %d", err, n.Load())
	}
	if err := pool.RunCtx(context.Background(), func(c *threading.PoolCtx) {
		c.ForEach(0, 32, 0, func(*threading.PoolCtx, int) { n.Add(1) })
	}); err != nil || n.Load() != 64 {
		t.Fatalf("pool: err = %v, counter = %d", err, n.Load())
	}
}

func TestDeadlinePropagatesThroughDevice(t *testing.T) {
	dev := threading.NewDevice("d2", threading.WithUnits(2))
	defer dev.Close()
	host := make([]float64, 8)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := dev.TargetCtx(ctx, []threading.Mapping{{Host: host, Dir: threading.MapToFrom}},
		func(bufs []*threading.Buffer) {
			<-ctx.Done()
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TargetCtx err = %v, want context.DeadlineExceeded", err)
	}
}

// Example-shaped smoke test: the quick-start from the package docs.
func TestQuickStartCompiles(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i)
	}
	m, err := threading.NewModel(threading.CilkFor, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m.ParallelForCtx(ctx, len(data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] *= 2
		}
	}); err != nil {
		var pe *threading.PanicError
		switch {
		case errors.As(err, &pe):
			t.Fatalf("chunk panicked: %v", pe.Value)
		default:
			t.Fatal(err)
		}
	}
	if data[999] != 1998 {
		t.Fatalf("data[999] = %v, want 1998", data[999])
	}
	_ = fmt.Sprintf("%+v", err) // PanicError formats with a stack under %+v
}
