package models

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"threading/internal/tracez"
)

func TestShardedModelBasics(t *testing.T) {
	for _, base := range shardableNames {
		t.Run(base, func(t *testing.T) {
			m, err := New(ShardedPrefix+base, 4, WithShardCount(2), WithShardBalancer("least-loaded"))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer m.Close()
			if want := ShardedPrefix + base; m.Name() != want {
				t.Fatalf("Name = %q, want %q", m.Name(), want)
			}
			if m.Threads() != 4 {
				t.Fatalf("Threads = %d, want 4", m.Threads())
			}

			const n = 4096
			var covered atomic.Int64
			if err := m.ParallelForCtx(context.Background(), n, func(lo, hi int) {
				covered.Add(int64(hi - lo))
			}); err != nil {
				t.Fatalf("ParallelForCtx: %v", err)
			}
			if covered.Load() != n {
				t.Fatalf("covered %d of %d iterations", covered.Load(), n)
			}

			sum, err := m.ParallelReduceCtx(context.Background(), n, 0,
				func(lo, hi int, acc float64) float64 {
					for i := lo; i < hi; i++ {
						acc += float64(i)
					}
					return acc
				},
				func(a, b float64) float64 { return a + b })
			if err != nil {
				t.Fatalf("ParallelReduceCtx: %v", err)
			}
			if want := float64(n*(n-1)) / 2; sum != want {
				t.Fatalf("reduce = %v, want %v", sum, want)
			}

			if err := m.TaskRunCtx(context.Background(), func(TaskScope) {}); !errors.Is(err, ErrTasksUnsupported) {
				t.Fatalf("TaskRunCtx = %v, want ErrTasksUnsupported", err)
			}

			res, ok := Resolver(m)
			if !ok {
				t.Fatal("sharded model does not run on a Resolver")
			}
			if got := res.NumShards(); got != 2 {
				t.Fatalf("NumShards = %d, want 2", got)
			}
			if got := res.BalancerName(); got != "least-loaded" {
				t.Fatalf("BalancerName = %q, want least-loaded", got)
			}
			stats := res.ShardStats()
			if len(stats) != 2 {
				t.Fatalf("ShardStats returned %d shards, want 2", len(stats))
			}
			merged, ok := m.SchedulerStats()
			if !ok {
				t.Fatal("SchedulerStats not available")
			}
			var tasks int64
			for _, st := range stats {
				tasks += st.Snapshot.TasksExecuted
			}
			if merged.TasksExecuted != tasks {
				t.Fatalf("merged %d tasks, shards sum %d", merged.TasksExecuted, tasks)
			}
		})
	}
}

func TestShardCountOptionOnBaseName(t *testing.T) {
	// WithShardCount on a shardable base name shards it without the
	// prefix; the cpp models ignore the option entirely.
	m, err := New(CilkFor, 4, WithShardCount(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	if _, ok := Resolver(m); !ok {
		t.Fatal("WithShardCount on cilk_for did not shard the runtime")
	}
	if want := ShardedPrefix + CilkFor; m.Name() != want {
		t.Fatalf("Name = %q, want %q", m.Name(), want)
	}
	cpp, err := New(CPPThread, 2, WithShardCount(2))
	if err != nil {
		t.Fatalf("New cpp_thread: %v", err)
	}
	defer cpp.Close()
	if _, ok := Resolver(cpp); ok {
		t.Fatal("cpp_thread should ignore WithShardCount")
	}
}

func TestShardedRejectsUnshardable(t *testing.T) {
	if _, err := New(ShardedPrefix+CPPThread, 2); err == nil {
		t.Fatal("sharded:cpp_thread should be rejected")
	}
	if _, err := New(ShardedPrefix+"nope", 2); err == nil {
		t.Fatal("sharded:nope should be rejected")
	}
	if _, err := New(ShardedPrefix+CilkFor, 2, WithShardBalancer("bogus")); err == nil {
		t.Fatal("bogus balancer should be rejected")
	}
}

func TestShardedTracerLanes(t *testing.T) {
	tr := tracez.New(1 << 10)
	m, err := New(ShardedPrefix+CilkFor, 4, WithShardCount(2), WithTracer(tr))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustRunLoop(t, m)
	m.Close()
	snap := tr.Snapshot()
	if snap == nil || len(snap.Workers) == 0 {
		t.Fatal("no trace captured")
	}
	prefixes := map[string]bool{}
	for _, wt := range snap.Workers {
		if len(wt.Label) >= 3 && wt.Label[0] == 's' {
			prefixes[wt.Label[:3]] = true
		}
	}
	if !prefixes["s0/"] || !prefixes["s1/"] {
		t.Fatalf("expected worker labels for both shards, got %v", prefixes)
	}
}

func mustRunLoop(t *testing.T, m Model) {
	t.Helper()
	if err := m.ParallelForCtx(context.Background(), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_ = i * i
		}
	}); err != nil {
		t.Fatalf("ParallelForCtx: %v", err)
	}
}
