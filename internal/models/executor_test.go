package models

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"threading/internal/sched"
)

// executorNames is every spelling NewExecutor must resolve, including
// a sharded one.
var executorNames = []string{
	OMPFor, OMPTask, CilkFor, CilkSpawn, CPPThread, CPPAsync,
	ShardedPrefix + CilkFor, ShardedPrefix + OMPFor,
}

func TestNewExecutorRunsLoops(t *testing.T) {
	for _, name := range executorNames {
		t.Run(name, func(t *testing.T) {
			ex, err := NewExecutor(name, 2)
			if err != nil {
				t.Fatalf("NewExecutor(%q): %v", name, err)
			}
			defer ex.Close()

			const n = 1000
			var hits [n]atomic.Int32
			if err := ex.ParallelForCtx(context.Background(), 0, n, 0, func(l, h int) {
				for i := l; i < h; i++ {
					hits[i].Add(1)
				}
			}); err != nil {
				t.Fatalf("ParallelForCtx: %v", err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("iteration %d executed %d times", i, got)
				}
			}

			sum, err := ex.ParallelReduceCtx(context.Background(), 0, n, 0, 0,
				func(l, h int, acc float64) float64 {
					for i := l; i < h; i++ {
						acc += float64(i)
					}
					return acc
				},
				func(a, b float64) float64 { return a + b })
			if err != nil {
				t.Fatalf("ParallelReduceCtx: %v", err)
			}
			if want := float64(n*(n-1)) / 2; sum != want {
				t.Fatalf("reduce = %g, want %g", sum, want)
			}

			var ran atomic.Bool
			if err := ex.SubmitCtx(context.Background(), func() { ran.Store(true) }); err != nil {
				t.Fatalf("SubmitCtx: %v", err)
			}
			if err := ex.Quiesce(); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}
			if !ran.Load() {
				t.Fatal("submitted task never ran")
			}
		})
	}
}

// TestNewExecutorConcurrentSubmitters is the property the Model layer
// does not promise and the Executor layer must: many goroutines
// driving loops and a reduction into one shared runtime at once, each
// covering its range exactly once.
func TestNewExecutorConcurrentSubmitters(t *testing.T) {
	for _, name := range executorNames {
		t.Run(name, func(t *testing.T) {
			ex, err := NewExecutor(name, 2)
			if err != nil {
				t.Fatalf("NewExecutor(%q): %v", name, err)
			}
			defer ex.Close()

			const callers, n = 4, 400
			var wg sync.WaitGroup
			errs := make([]error, callers)
			sums := make([]int64, callers)
			for c := 0; c < callers; c++ {
				c := c
				wg.Add(1)
				go func() {
					defer wg.Done()
					var sum atomic.Int64
					errs[c] = ex.ParallelForCtx(context.Background(), 0, n, 16, func(l, h int) {
						for i := l; i < h; i++ {
							sum.Add(int64(i))
						}
					})
					sums[c] = sum.Load()
				}()
			}
			var reduced float64
			var reduceErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				reduced, reduceErr = ex.ParallelReduceCtx(context.Background(), 0, n, 16, 0,
					func(l, h int, acc float64) float64 {
						for i := l; i < h; i++ {
							acc += float64(i)
						}
						return acc
					},
					func(a, b float64) float64 { return a + b })
			}()
			wg.Wait()
			if reduceErr != nil || reduced != n*(n-1)/2 {
				t.Fatalf("concurrent reduce = %v, %v; want %d, nil", reduced, reduceErr, n*(n-1)/2)
			}
			for c := 0; c < callers; c++ {
				if errs[c] != nil {
					t.Fatalf("caller %d: %v", c, errs[c])
				}
				if want := int64(n*(n-1)) / 2; sums[c] != want {
					t.Fatalf("caller %d sum = %d, want %d", c, sums[c], want)
				}
			}
		})
	}
}

func TestNewExecutorCancellation(t *testing.T) {
	for _, name := range executorNames {
		t.Run(name, func(t *testing.T) {
			ex, err := NewExecutor(name, 2)
			if err != nil {
				t.Fatalf("NewExecutor(%q): %v", name, err)
			}
			defer ex.Close()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err = ex.ParallelForCtx(ctx, 0, 1<<20, 1, func(l, h int) {})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("ParallelForCtx on canceled ctx = %v, want Canceled", err)
			}
			// The runtime must be reusable after a canceled region.
			if err := ex.ParallelForCtx(context.Background(), 0, 64, 0, func(l, h int) {}); err != nil {
				t.Fatalf("reuse after cancel: %v", err)
			}
		})
	}
}

func TestNewExecutorSubmitPanicSurfacesInQuiesce(t *testing.T) {
	// The cpp adapter's own AsyncGroup path (pools and teams have their
	// own tested plumbing).
	ex, err := NewExecutor(CPPAsync, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if err := ex.SubmitCtx(context.Background(), func() { panic("boom") }); err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	err = ex.Quiesce()
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Quiesce = %v, want PanicError", err)
	}
	if err := ex.Quiesce(); err != nil {
		t.Fatalf("second Quiesce = %v, want nil (error cleared)", err)
	}
}

func TestNewExecutorRejectsBadInput(t *testing.T) {
	if _, err := NewExecutor("no_such_model", 2); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewExecutor(CilkFor, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := NewExecutor(ShardedPrefix+CPPThread, 2); err == nil {
		t.Fatal("sharded cpp_thread accepted (no runtime to shard)")
	}
}
