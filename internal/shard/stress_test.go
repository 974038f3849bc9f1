package shard

// Resolver stress test in the style of dbresolver's: many concurrent
// submitters hammer one Resolver through every balancer while shards
// are hot-added and drained mid-storm. The assertions are the
// contracts that matter under churn: every loop covers its range
// exactly once, every submission runs exactly once, reductions stay
// correct, drains never drop assigned work, and shutdown is clean.
// The race-sched CI job runs this file under -race.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"threading/internal/forkjoin"
	"threading/internal/worksteal"
)

// stressShard builds a small shard, alternating runtimes so the storm
// always crosses the Pool/Team seam.
func stressShard(i int) Executor {
	if i%2 == 0 {
		return worksteal.NewPool(2)
	}
	return forkjoin.NewTeam(2)
}

func TestResolverStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	for _, name := range balancerNames {
		t.Run(name, func(t *testing.T) {
			bal, err := ParseBalancer(name)
			if err != nil {
				t.Fatalf("ParseBalancer(%q): %v", name, err)
			}
			r, err := New(
				WithBalancer(bal),
				WithShards(stressShard(0), stressShard(1), stressShard(2), stressShard(3)),
			)
			if err != nil {
				t.Fatalf("New: %v", err)
			}

			const (
				submitters = 6
				loops      = 8
				iters      = 2048
				tasks      = 32
			)
			ctx := context.Background()

			// Churn shards while the storm runs: add a shard, then
			// drain one that has had time to accumulate work, keeping
			// at least the four originals' worth routable.
			stop := make(chan struct{})
			var churn sync.WaitGroup
			churn.Add(1)
			go func() {
				defer churn.Done()
				next := 4
				for {
					select {
					case <-stop:
						return
					default:
					}
					id, err := r.AddShard(stressShard(next))
					next++
					if err != nil {
						t.Errorf("AddShard: %v", err)
						return
					}
					ids := r.Shards()
					// Drain the oldest routable shard, never the one
					// just added, and never below 4.
					if len(ids) > 4 {
						if err := r.Drain(ids[0]); err != nil {
							t.Errorf("Drain(%d): %v", ids[0], err)
							return
						}
					}
					_ = id
				}
			}()

			var submitted atomic.Int64
			var ran atomic.Int64
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					hits := make([]atomic.Int32, iters)
					for l := 0; l < loops; l++ {
						// Exact-once chunk coverage under churn.
						if err := r.ParallelForCtx(ctx, 0, iters, 32, func(lo, hi int) {
							for i := lo; i < hi; i++ {
								hits[i].Add(1)
							}
						}); err != nil {
							t.Errorf("submitter %d loop %d: %v", seed, l, err)
							return
						}
						// Reduction correctness under churn.
						sum, err := r.ParallelReduceCtx(ctx, 0, iters, 64, 0,
							func(lo, hi int, acc float64) float64 {
								for i := lo; i < hi; i++ {
									acc += float64(i)
								}
								return acc
							},
							func(a, b float64) float64 { return a + b })
						if err != nil {
							t.Errorf("submitter %d reduce %d: %v", seed, l, err)
							return
						}
						if want := float64(iters*(iters-1)) / 2; sum != want {
							t.Errorf("submitter %d reduce %d = %v, want %v", seed, l, sum, want)
							return
						}
						for i := 0; i < tasks; i++ {
							if err := r.SubmitCtx(ctx, func() { ran.Add(1) }); err != nil {
								t.Errorf("submitter %d submit: %v", seed, err)
								return
							}
							submitted.Add(1)
						}
					}
					for i := range hits {
						if c := hits[i].Load(); c != int32(loops) {
							t.Errorf("submitter %d: iteration %d executed %d times, want %d", seed, i, c, loops)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			close(stop)
			churn.Wait()

			if err := r.Quiesce(); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}
			if got, want := ran.Load(), submitted.Load(); got != want {
				t.Fatalf("%d of %d submissions ran", got, want)
			}
			// Clean shutdown: Close must retire every remaining shard
			// without dropping anything or deadlocking.
			r.Close()
			if err := r.SubmitCtx(ctx, func() {}); err == nil {
				t.Fatal("SubmitCtx after Close should fail")
			}
		})
	}
}

// TestResolverDrainUnderLoad drains a shard while loops are in flight
// and asserts no work is lost: the drain must wait out assigned
// dispatches rather than dropping them.
func TestResolverDrainUnderLoad(t *testing.T) {
	r, err := New(
		WithBalancer(RoundRobin()),
		WithShards(stressShard(0), stressShard(1), stressShard(2)),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	ctx := context.Background()

	const iters = 4096
	var wg sync.WaitGroup
	var covered atomic.Int64
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < 10; l++ {
				if err := r.ParallelForCtx(ctx, 0, iters, 64, func(lo, hi int) {
					covered.Add(int64(hi - lo))
				}); err != nil {
					t.Errorf("loop: %v", err)
					return
				}
			}
		}()
	}
	// Drain mid-storm.
	ids := r.Shards()
	if err := r.Drain(ids[1]); err != nil {
		t.Fatalf("Drain(%d) under load: %v", ids[1], err)
	}
	wg.Wait()
	if got, want := covered.Load(), int64(4*10*iters); got != want {
		t.Fatalf("covered %d iterations, want %d", got, want)
	}
}
