package models

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threading/internal/sched"
)

// eachModel runs fn as a subtest against every data-parallel model.
func eachModel(t *testing.T, fn func(t *testing.T, m Model)) {
	for _, name := range DataNames() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 4)
			defer m.Close()
			fn(t, m)
		})
	}
}

func TestParallelForCtxCompletes(t *testing.T) {
	eachModel(t, func(t *testing.T, m Model) {
		var n atomic.Int64
		if err := m.ParallelForCtx(context.Background(), 1000, func(lo, hi int) {
			n.Add(int64(hi - lo))
		}); err != nil {
			t.Fatalf("ParallelForCtx: %v", err)
		}
		if n.Load() != 1000 {
			t.Fatalf("covered %d of 1000 iterations", n.Load())
		}
	})
}

func TestParallelForCtxCancelMidLoop(t *testing.T) {
	eachModel(t, func(t *testing.T, m Model) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		err := m.ParallelForCtx(ctx, 64, func(lo, hi int) {
			once.Do(cancel)
			<-ctx.Done() // hold in-flight chunks until cancellation lands
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

func TestParallelForCtxDeadline(t *testing.T) {
	eachModel(t, func(t *testing.T, m Model) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		err := m.ParallelForCtx(ctx, 64, func(lo, hi int) {
			<-ctx.Done()
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

func TestParallelForCtxExpiredContextSkipsBody(t *testing.T) {
	eachModel(t, func(t *testing.T, m Model) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expire before the loop starts
		var ran atomic.Bool
		err := m.ParallelForCtx(ctx, 64, func(lo, hi int) { ran.Store(true) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ran.Load() {
			t.Fatal("body ran under an already-expired context")
		}
	})
}

func TestParallelForCtxPanicBecomesPanicError(t *testing.T) {
	eachModel(t, func(t *testing.T, m Model) {
		err := m.ParallelForCtx(context.Background(), 64, func(lo, hi int) {
			if lo == 0 {
				panic("chunk-boom")
			}
		})
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *sched.PanicError", err)
		}
		if pe.Value != "chunk-boom" {
			t.Fatalf("PanicError.Value = %v, want chunk-boom", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError.Stack is empty")
		}
	})
}

func TestModelReusableAfterCancelAndPanic(t *testing.T) {
	eachModel(t, func(t *testing.T, m Model) {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		_ = m.ParallelForCtx(ctx, 32, func(lo, hi int) {
			once.Do(cancel)
			<-ctx.Done()
		})
		_ = m.ParallelForCtx(context.Background(), 32, func(lo, hi int) {
			if lo == 0 {
				panic("transient")
			}
		})
		var n atomic.Int64
		Must(m.ParallelForCtx(context.Background(), 500, func(lo, hi int) { n.Add(int64(hi - lo)) }))
		if n.Load() != 500 {
			t.Fatalf("after cancel+panic, ParallelForCtx covered %d of 500", n.Load())
		}
	})
}

func TestParallelReduceCtx(t *testing.T) {
	eachModel(t, func(t *testing.T, m Model) {
		got, err := m.ParallelReduceCtx(context.Background(), 1000, 0,
			func(lo, hi int, acc float64) float64 { return acc + float64(hi-lo) },
			func(a, b float64) float64 { return a + b })
		if err != nil {
			t.Fatalf("ParallelReduceCtx: %v", err)
		}
		if got != 1000 {
			t.Fatalf("reduce = %v, want 1000", got)
		}
	})
}

func TestParallelReduceCtxCancelReturnsIdentity(t *testing.T) {
	eachModel(t, func(t *testing.T, m Model) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		got, err := m.ParallelReduceCtx(ctx, 64, 42,
			func(lo, hi int, acc float64) float64 {
				once.Do(cancel)
				<-ctx.Done()
				return acc + float64(hi-lo)
			},
			func(a, b float64) float64 { return a + b })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got != 42 {
			t.Fatalf("canceled reduce = %v, want the identity 42", got)
		}
	})
}

func TestTaskRunCtxUnsupportedTyped(t *testing.T) {
	for _, name := range []string{OMPFor, CilkFor} {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 2)
			defer m.Close()
			err := m.TaskRunCtx(context.Background(), func(TaskScope) {})
			if !errors.Is(err, ErrTasksUnsupported) {
				t.Fatalf("err = %v, want ErrTasksUnsupported", err)
			}
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not name the model %q", err, name)
			}
		})
	}
}

func TestTaskRunCtxRuns(t *testing.T) {
	for _, name := range TaskNames() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 4)
			defer m.Close()
			var n atomic.Int64
			err := m.TaskRunCtx(context.Background(), func(s TaskScope) {
				for i := 0; i < 8; i++ {
					s.Spawn(func(TaskScope) { n.Add(1) })
				}
				s.Sync()
			})
			if err != nil {
				t.Fatalf("TaskRunCtx: %v", err)
			}
			if n.Load() != 8 {
				t.Fatalf("ran %d of 8 tasks", n.Load())
			}
		})
	}
}

func TestTaskRunCtxCancel(t *testing.T) {
	for _, name := range TaskNames() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 4)
			defer m.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err := m.TaskRunCtx(ctx, func(s TaskScope) {
				s.Spawn(func(TaskScope) { cancel() })
				s.Sync()
				<-ctx.Done()
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestTaskRunCtxPanicBecomesPanicError(t *testing.T) {
	for _, name := range TaskNames() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 4)
			defer m.Close()
			err := m.TaskRunCtx(context.Background(), func(s TaskScope) {
				s.Spawn(func(TaskScope) { panic("task-boom") })
				s.Sync()
			})
			var pe *sched.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *sched.PanicError", err)
			}
			if pe.Value != "task-boom" {
				t.Fatalf("PanicError.Value = %v, want task-boom", pe.Value)
			}
			// The model survives the panic.
			var n atomic.Int64
			if err := m.TaskRunCtx(context.Background(), func(s TaskScope) {
				s.Spawn(func(TaskScope) { n.Add(1) })
				s.Sync()
			}); err != nil {
				t.Fatalf("TaskRunCtx after panic: %v", err)
			}
			if n.Load() != 1 {
				t.Fatal("task did not run after a previous panic")
			}
		})
	}
}
