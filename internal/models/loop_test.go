package models

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"threading/internal/sched"
	"threading/internal/worksteal"
)

// surface is one way into a loop runtime — the Model methods or the
// Executor methods — reduced to what TestModelLoopMatchesExecutorLoop
// compares.
type surface struct {
	loop   func(ctx context.Context, n int, body func(lo, hi int)) error
	reduce func(ctx context.Context, n int) (float64, error)
	stats  func() sched.Snapshot
	close  func()
}

func sumBody(lo, hi int, acc float64) float64 {
	for i := lo; i < hi; i++ {
		acc += float64(i)
	}
	return acc
}

func add(a, b float64) float64 { return a + b }

// TestModelLoopMatchesExecutorLoop is the "identical numeric work,
// only the runtime differs" property at the API seam: for every loop
// model, New(...).ParallelForCtx/ParallelReduceCtx and
// NewExecutor(...) with the same arguments must be the same loop.
// grain is what WithGrain asks for; execGrain is what the executor is
// called with to match — they differ only for team-backed models,
// which have no grain knob (WithGrain(64) on sharded:omp_for used to
// turn 4 static chunks into 256 dynamic ones; the chunk counts below
// pin that).
func TestModelLoopMatchesExecutorLoop(t *testing.T) {
	const threads, n = 4, 16384
	cases := []struct {
		label            string
		name             string
		part             worksteal.Partitioner
		grain, execGrain int
		// wantChunks is the body-call count of one loop: > 0 is
		// asserted outright, < 0 only model-vs-executor (deterministic,
		// but a heuristic's value), 0 not at all (lazy splits on demand).
		wantChunks int64
	}{
		{"omp_for", OMPFor, worksteal.Eager, 0, 0, threads},
		{"omp_for/grain64", OMPFor, worksteal.Eager, 64, 0, threads},
		{"cilk_for/eager", CilkFor, worksteal.Eager, 0, 0, -1},
		{"cilk_for/eager/grain64", CilkFor, worksteal.Eager, 64, 64, n / 64},
		{"cilk_for/lazy", CilkFor, worksteal.Lazy, 0, 0, 0},
		{"cilk_for/lazy/grain64", CilkFor, worksteal.Lazy, 64, 64, 0},
		{"sharded:cilk_for", ShardedPrefix + CilkFor, worksteal.Eager, 64, 64, n / 64},
		{"sharded:omp_for", ShardedPrefix + OMPFor, worksteal.Eager, 0, 0, threads},
		{"sharded:omp_for/grain64", ShardedPrefix + OMPFor, worksteal.Eager, 64, 0, threads},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			opts := []Option{WithPartitioner(tc.part), WithGrain(tc.grain)}
			m, err := New(tc.name, threads, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := NewExecutor(tc.name, threads, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sides := map[string]surface{
				"model": {
					loop: m.ParallelForCtx,
					reduce: func(ctx context.Context, n int) (float64, error) {
						return m.ParallelReduceCtx(ctx, n, 0, sumBody, add)
					},
					stats: func() sched.Snapshot { s, _ := m.SchedulerStats(); return s },
					close: m.Close,
				},
				"executor": {
					loop: func(ctx context.Context, n int, body func(lo, hi int)) error {
						return ex.ParallelForCtx(ctx, 0, n, tc.execGrain, body)
					},
					reduce: func(ctx context.Context, n int) (float64, error) {
						return ex.ParallelReduceCtx(ctx, 0, n, tc.execGrain, 0, sumBody, add)
					},
					stats: ex.(interface{ Stats() sched.Snapshot }).Stats,
					close: ex.Close,
				},
			}
			chunks := map[string]int64{}
			deltas := map[string]sched.Snapshot{}
			for side, s := range sides {
				defer s.close()
				chunks[side], deltas[side] = exerciseLoop(t, side, s, n)
			}
			if tc.wantChunks == 0 {
				return
			}
			if tc.wantChunks > 0 && chunks["model"] != tc.wantChunks {
				t.Errorf("model ran %d chunks, want %d", chunks["model"], tc.wantChunks)
			}
			if chunks["model"] != chunks["executor"] {
				t.Errorf("chunks: model %d, executor %d", chunks["model"], chunks["executor"])
			}
			dm, de := deltas["model"], deltas["executor"]
			if dm.LoopChunks != de.LoopChunks || dm.Spawns != de.Spawns {
				t.Errorf("counters: model chunks=%d spawns=%d, executor chunks=%d spawns=%d",
					dm.LoopChunks, dm.Spawns, de.LoopChunks, de.Spawns)
			}
		})
	}
}

// exerciseLoop drives one surface through the shared contract: exact
// once coverage, the closed-form reduction, and reuse after a mid-loop
// cancel and after a body panic. It returns the body-call count and
// the counter delta of the one clean coverage loop.
func exerciseLoop(t *testing.T, side string, s surface, n int) (int64, sched.Snapshot) {
	t.Helper()
	ctx := context.Background()

	hits := make([]atomic.Int32, n)
	var chunks atomic.Int64
	base := s.stats()
	if err := s.loop(ctx, n, func(lo, hi int) {
		chunks.Add(1)
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	}); err != nil {
		t.Fatalf("%s: loop: %v", side, err)
	}
	delta := s.stats().Delta(base)
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("%s: index %d visited %d times", side, i, got)
		}
	}

	want := float64(n) * float64(n-1) / 2
	if got, err := s.reduce(ctx, n); err != nil || got != want {
		t.Fatalf("%s: reduce = %g, %v; want %g", side, got, err, want)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var once sync.Once
	if err := s.loop(cctx, n, func(lo, hi int) {
		once.Do(cancel)
		<-cctx.Done()
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: canceled loop = %v, want context.Canceled", side, err)
	}
	var pe *sched.PanicError
	if err := s.loop(ctx, n, func(lo, hi int) {
		if lo == 0 {
			panic("chunk-boom")
		}
	}); !errors.As(err, &pe) {
		t.Fatalf("%s: panicking loop = %v, want *sched.PanicError", side, err)
	}
	if got, err := s.reduce(ctx, n); err != nil || got != want {
		t.Fatalf("%s: reduce after cancel+panic = %g, %v; want %g", side, got, err, want)
	}
	return chunks.Load(), delta
}
