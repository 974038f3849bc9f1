package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"threading/internal/forkjoin"
	"threading/internal/worksteal"
)

// newMixedResolver builds a resolver over two pool shards and one team
// shard — the interface must hide which runtime backs a shard.
func newMixedResolver(t *testing.T, bal Balancer) *Resolver {
	t.Helper()
	r, err := New(
		WithBalancer(bal),
		WithShards(
			worksteal.NewPool(2),
			worksteal.NewPool(2),
			forkjoin.NewTeam(2),
		),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestNewRequiresShards(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("New() without shards should fail")
	}
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	r := newMixedResolver(t, RoundRobin())
	defer r.Close()
	const n = 10_000
	hits := make([]atomic.Int32, n)
	err := r.ParallelForCtx(context.Background(), 0, n, 64, func(l, h int) {
		for i := l; i < h; i++ {
			hits[i].Add(1)
		}
	})
	if err != nil {
		t.Fatalf("ParallelForCtx: %v", err)
	}
	for i := range hits {
		if c := hits[i].Load(); c != 1 {
			t.Fatalf("iteration %d executed %d times", i, c)
		}
	}
}

func TestParallelReduce(t *testing.T) {
	for _, bal := range []Balancer{RoundRobin(), Random(), LeastLoaded(), Affinity()} {
		t.Run(bal.Name(), func(t *testing.T) {
			r := newMixedResolver(t, bal)
			defer r.Close()
			const n = 5000
			got, err := r.ParallelReduceCtx(context.Background(), 0, n, 32, 0,
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
			want := float64(n*(n-1)) / 2
			if got != want {
				t.Fatalf("sum = %v, want %v", got, want)
			}
		})
	}
}

func TestSubmitQuiesce(t *testing.T) {
	r := newMixedResolver(t, LeastLoaded())
	defer r.Close()
	var ran atomic.Int64
	const n = 100
	for i := 0; i < n; i++ {
		if err := r.SubmitCtx(context.Background(), func() { ran.Add(1) }); err != nil {
			t.Fatalf("SubmitCtx: %v", err)
		}
	}
	if err := r.Quiesce(); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d submissions", got, n)
	}
}

func TestSubmitPanicSurfacesInQuiesce(t *testing.T) {
	r := newMixedResolver(t, RoundRobin())
	defer r.Close()
	for i := 0; i < 3; i++ {
		if err := r.SubmitCtx(context.Background(), func() { panic("boom") }); err != nil {
			t.Fatalf("SubmitCtx: %v", err)
		}
	}
	if err := r.Quiesce(); err == nil {
		t.Fatal("Quiesce should report the submitted panic")
	}
	// A later quiesce interval starts clean.
	if err := r.Quiesce(); err != nil {
		t.Fatalf("second Quiesce: %v", err)
	}
}

func TestCanceledContext(t *testing.T) {
	r := newMixedResolver(t, RoundRobin())
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.ParallelForCtx(ctx, 0, 1000, 8, func(_, _ int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ParallelForCtx on canceled ctx = %v, want context.Canceled", err)
	}
	if err := r.SubmitCtx(ctx, func() {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestAddDrain(t *testing.T) {
	r := newMixedResolver(t, RoundRobin())
	defer r.Close()
	if got := r.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	id, err := r.AddShard(worksteal.NewPool(1))
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if got := r.NumShards(); got != 4 {
		t.Fatalf("NumShards after add = %d, want 4", got)
	}
	if err := r.Drain(id); err != nil {
		t.Fatalf("Drain(%d): %v", id, err)
	}
	if got := r.NumShards(); got != 3 {
		t.Fatalf("NumShards after drain = %d, want 3", got)
	}
	if err := r.Drain(id); err == nil {
		t.Fatal("double Drain should fail")
	}
	// Work still routes after the drain.
	var n atomic.Int64
	if err := r.ParallelForCtx(context.Background(), 0, 100, 10, func(l, h int) {
		n.Add(int64(h - l))
	}); err != nil {
		t.Fatalf("ParallelForCtx after drain: %v", err)
	}
	if n.Load() != 100 {
		t.Fatalf("covered %d iterations, want 100", n.Load())
	}
}

func TestDrainLastShardRefused(t *testing.T) {
	r, err := New(WithShards(worksteal.NewPool(1)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	ids := r.Shards()
	if len(ids) != 1 {
		t.Fatalf("Shards = %v, want one", ids)
	}
	if err := r.Drain(ids[0]); err == nil {
		t.Fatal("draining the last shard should be refused")
	}
}

func TestClosedResolverRejectsWork(t *testing.T) {
	r := newMixedResolver(t, RoundRobin())
	r.Close()
	r.Close() // idempotent
	if err := r.ParallelForCtx(context.Background(), 0, 10, 1, func(_, _ int) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ParallelForCtx after Close = %v, want ErrClosed", err)
	}
	if err := r.SubmitCtx(context.Background(), func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitCtx after Close = %v, want ErrClosed", err)
	}
	if _, err := r.AddShard(worksteal.NewPool(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddShard after Close = %v, want ErrClosed", err)
	}
}

func TestShardStats(t *testing.T) {
	r := newMixedResolver(t, RoundRobin())
	defer r.Close()
	if err := r.ParallelForCtx(context.Background(), 0, 4096, 16, func(_, _ int) {}); err != nil {
		t.Fatalf("ParallelForCtx: %v", err)
	}
	stats := r.ShardStats()
	if len(stats) != 3 {
		t.Fatalf("ShardStats returned %d entries, want 3", len(stats))
	}
	var tasks, chunks int64
	for _, st := range stats {
		tasks += st.Snapshot.TasksExecuted
		chunks += st.Snapshot.LoopChunks
	}
	merged := r.Stats()
	if merged.TasksExecuted != tasks || merged.LoopChunks != chunks {
		t.Fatalf("merged Stats %+v does not sum ShardStats", merged)
	}
	if tasks == 0 && chunks == 0 {
		t.Fatal("no shard recorded any activity")
	}
	// A second loop shows in the delta of two merged snapshots.
	if err := r.ParallelForCtx(context.Background(), 0, 4096, 16, func(_, _ int) {}); err != nil {
		t.Fatalf("ParallelForCtx: %v", err)
	}
	if d := r.Stats().Delta(merged); d.TasksExecuted+d.LoopChunks == 0 {
		t.Fatalf("second loop recorded no activity: delta %+v", d)
	}
}

func TestCutPartition(t *testing.T) {
	for _, tc := range []struct{ lo, hi, parts int }{
		{0, 10, 3}, {5, 6, 1}, {0, 7, 7}, {3, 103, 4}, {0, 2, 2},
	} {
		prev := tc.lo
		total := 0
		for i := 0; i < tc.parts; i++ {
			l, h := cut(tc.lo, tc.hi, tc.parts, i)
			if l != prev {
				t.Fatalf("cut(%d,%d,%d,%d) starts at %d, want %d", tc.lo, tc.hi, tc.parts, i, l, prev)
			}
			if h < l {
				t.Fatalf("cut(%d,%d,%d,%d) = [%d,%d) inverted", tc.lo, tc.hi, tc.parts, i, l, h)
			}
			total += h - l
			prev = h
		}
		if prev != tc.hi || total != tc.hi-tc.lo {
			t.Fatalf("cut(%d,%d,%d) covers %d ending at %d", tc.lo, tc.hi, tc.parts, total, prev)
		}
	}
}

func TestBalancerPicks(t *testing.T) {
	noLoad := func(int) int64 { return 0 }
	noKey := func() uint64 { return 0 }

	rr := RoundRobin()
	for i := 0; i < 8; i++ {
		if got := rr.Pick(4, noLoad, noKey); got != i%4 {
			t.Fatalf("round-robin pick %d = %d, want %d", i, got, i%4)
		}
	}

	rand := Random()
	for i := 0; i < 100; i++ {
		if got := rand.Pick(4, noLoad, noKey); got < 0 || got >= 4 {
			t.Fatalf("random pick out of range: %d", got)
		}
	}

	loads := []int64{5, 1, 7}
	if got := LeastLoaded().Pick(3, func(i int) int64 { return loads[i] }, noKey); got != 1 {
		t.Fatalf("least-loaded pick = %d, want 1", got)
	}

	aff := Affinity()
	key := func() uint64 { return 42 }
	first := aff.Pick(4, noLoad, key)
	for i := 0; i < 10; i++ {
		if got := aff.Pick(4, noLoad, key); got != first {
			t.Fatalf("affinity pick moved from %d to %d for the same key", first, got)
		}
	}
}

func TestAffinityRoutesSubmitterToOneShard(t *testing.T) {
	r, err := New(
		WithBalancer(Affinity()),
		WithShards(worksteal.NewPool(1), worksteal.NewPool(1), worksteal.NewPool(1), worksteal.NewPool(1)),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	// From a fixed goroutine, every loop must land on the same shard:
	// exactly one shard accumulates tasks across repeated loops.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rep := 0; rep < 5; rep++ {
			_ = r.ParallelForCtx(context.Background(), 0, 256, 16, func(_, _ int) {})
		}
	}()
	wg.Wait()
	active := 0
	for _, st := range r.ShardStats() {
		if st.Snapshot.TasksExecuted > 0 {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("affinity spread one submitter across %d shards, want 1", active)
	}
}

func TestParseBalancer(t *testing.T) {
	for _, name := range Balancers {
		b, err := ParseBalancer(name)
		if err != nil {
			t.Fatalf("ParseBalancer(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("ParseBalancer(%q).Name() = %q", name, b.Name())
		}
	}
	if b, err := ParseBalancer(""); err != nil || b.Name() != "round-robin" {
		t.Fatalf("ParseBalancer(\"\") = %v, %v; want round-robin", b, err)
	}
	if _, err := ParseBalancer("nope"); err == nil {
		t.Fatal("ParseBalancer(\"nope\") should fail")
	}
}

func TestNestedResolver(t *testing.T) {
	inner, err := New(WithShards(worksteal.NewPool(1), worksteal.NewPool(1)))
	if err != nil {
		t.Fatalf("New inner: %v", err)
	}
	outer, err := New(WithBalancer(LeastLoaded()), WithShards(inner, forkjoin.NewTeam(1)))
	if err != nil {
		t.Fatalf("New outer: %v", err)
	}
	defer outer.Close() // closes inner through ownership
	var n atomic.Int64
	if err := outer.ParallelForCtx(context.Background(), 0, 1000, 50, func(l, h int) {
		n.Add(int64(h - l))
	}); err != nil {
		t.Fatalf("ParallelForCtx: %v", err)
	}
	if n.Load() != 1000 {
		t.Fatalf("covered %d iterations, want 1000", n.Load())
	}
}
