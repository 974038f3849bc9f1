package threading_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"threading"
)

// TestPublicSurface exercises the root package the way a downstream
// user would, touching every re-exported constructor.
func TestPublicSurface(t *testing.T) {
	if len(threading.ModelNames()) != 6 {
		t.Fatalf("ModelNames = %v", threading.ModelNames())
	}

	m, err := threading.NewModel(threading.OMPFor, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int64
	err = m.ParallelForCtx(context.Background(), 1000, func(lo, hi int) { total.Add(int64(hi - lo)) })
	m.Close()
	if err != nil || total.Load() != 1000 {
		t.Fatalf("ParallelForCtx covered %d, err = %v", total.Load(), err)
	}

	team := threading.NewTeam(2)
	var members atomic.Int64
	team.Parallel(func(tc *threading.TeamCtx) {
		members.Add(1)
		tc.For(threading.Dynamic(16), 0, 100, func(i int) {})
		tc.For(threading.Guided(4), 0, 100, func(i int) {})
		tc.For(threading.Static, 0, 100, func(i int) {})
	})
	team.Close()
	if members.Load() != 2 {
		t.Fatalf("team ran %d members", members.Load())
	}

	pool := threading.NewPool(2)
	var spawned atomic.Int64
	pool.Run(func(c *threading.PoolCtx) {
		c.Spawn(func(*threading.PoolCtx) { spawned.Add(1) })
		c.Sync()
	})
	pool.Close()
	if spawned.Load() != 1 {
		t.Fatal("pool spawn did not run")
	}

	th := threading.NewThread(func() { spawned.Add(1) })
	th.Join()

	f := threading.Async(threading.LaunchAsync, func() (int, error) { return 5, nil })
	if v, err := f.Get(); err != nil || v != 5 {
		t.Fatalf("Async Get = (%d, %v)", v, err)
	}
	fd := threading.Async(threading.LaunchDeferred, func() (int, error) { return 6, nil })
	if v, _ := fd.Get(); v != 6 {
		t.Fatal("deferred Async broken")
	}

	var sb strings.Builder
	if err := threading.FeatureReport(nil, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "OpenMP") {
		t.Error("feature report empty")
	}

	var out strings.Builder
	results, err := threading.RunSuite(threading.SuiteConfig{
		Config:      threading.RunConfig{Threads: []int{1}, Reps: 1, Scale: 0.001},
		Experiments: []string{"fig1"},
	}, &out)
	if err != nil || len(results) != 1 {
		t.Fatalf("RunSuite: %v, %d results", err, len(results))
	}
}

// TestProfileSpanFacade exercises the work/span analyzer through the
// public facade on a fib-shaped DAG.
func TestProfileSpanFacade(t *testing.T) {
	var build func(s threading.SpanScope, n int)
	build = func(s threading.SpanScope, n int) {
		if n < 2 {
			s.Charge(time.Microsecond)
			return
		}
		s.Spawn(func(cs threading.SpanScope) { build(cs, n-1) })
		build(s, n-2)
		s.Sync()
	}
	r := threading.ProfileSpan(threading.SpanOptions{}, func(s threading.SpanScope) {
		build(s, 12)
	})
	if r.Work <= 0 || r.Span <= 0 || r.Parallelism() <= 1 {
		t.Fatalf("degenerate report: %+v", r)
	}
	if r.Span > r.Work {
		t.Fatal("span exceeds work")
	}
	if b := r.SpeedupBound(4); b > 4 {
		t.Fatalf("bound(4) = %g > 4", b)
	}
}

// TestShardingSurface exercises the sharded-execution re-exports: a
// hand-built Resolver over a Pool and a Team, and a sharded model from
// NewModel with the canonical combined options.
func TestShardingSurface(t *testing.T) {
	var _ threading.Executor = (*threading.Pool)(nil)
	var _ threading.Executor = (*threading.Team)(nil)
	var _ threading.Executor = (*threading.Resolver)(nil)

	for _, mk := range []func() threading.Balancer{
		threading.RoundRobin, threading.Random, threading.LeastLoaded, threading.Affinity,
	} {
		b := mk()
		if _, err := threading.ParseBalancer(b.Name()); err != nil {
			t.Fatalf("ParseBalancer(%q): %v", b.Name(), err)
		}
	}

	res, err := threading.NewResolver(
		threading.WithShards(threading.NewPool(2), threading.NewTeam(2)),
		threading.WithBalancer(threading.LeastLoaded()))
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int64
	if err := res.ParallelForCtx(context.Background(), 0, 1000, 0, func(lo, hi int) {
		total.Add(int64(hi - lo))
	}); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 1000 {
		t.Fatalf("resolver covered %d of 1000", total.Load())
	}
	if err := res.Quiesce(); err != nil {
		t.Fatal(err)
	}
	res.Close()

	tr := threading.NewTracer(1 << 10)
	m, err := threading.NewModel(threading.CilkFor, 4,
		threading.WithShardCount(2), threading.WithShardBalancer("round-robin"),
		threading.WithPartitioner(threading.PartitionEager), threading.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	shards, ok := threading.ModelResolver(m)
	if !ok {
		t.Fatal("sharded model does not run on a Resolver")
	}
	if shards.NumShards() != 2 {
		t.Fatalf("NumShards = %d", shards.NumShards())
	}
	if err := m.ParallelForCtx(context.Background(), 4096, func(lo, hi int) {}); err != nil {
		t.Fatal(err)
	}
	if stats := shards.ShardStats(); len(stats) != 2 {
		t.Fatalf("ShardStats = %d entries", len(stats))
	}

	// The same options are accepted by the runtime constructors
	// directly.
	pool := threading.NewPool(1,
		threading.WithPartitioner(threading.PartitionLazy), threading.WithTracer(tr))
	pool.Close()
	team := threading.NewTeam(1, threading.WithTracer(tr))
	team.Close()
}
