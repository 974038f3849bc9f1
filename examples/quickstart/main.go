// Quickstart: the three layers of the threading library in one page.
//
//  1. The portable Model interface — write a parallel loop once, run
//     it under any of the six threading-model configurations.
//  2. The OpenMP-style fork-join Team — work-sharing loops, barriers,
//     reductions.
//  3. The Cilk-style work-stealing Pool — recursive spawn/sync.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"runtime"

	"threading"
)

func main() {
	p := runtime.GOMAXPROCS(0)
	fmt.Printf("quickstart on %d logical processors\n\n", p)

	// --- Layer 1: the portable Model interface -------------------
	data := make([]float64, 1_000_000)
	for i := range data {
		data[i] = float64(i)
	}
	for _, name := range threading.ModelNames() {
		m, err := threading.NewModel(name, p)
		if err != nil {
			panic(err)
		}
		sum, err := m.ParallelReduceCtx(context.Background(), len(data), 0,
			func(lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += data[i]
				}
				return acc
			},
			func(a, b float64) float64 { return a + b })
		m.Close()
		if err != nil { // a canceled context, or a chunk panic as *threading.PanicError
			panic(err)
		}
		fmt.Printf("  %-11s sum(0..%d) = %.0f\n", name, len(data)-1, sum)
	}

	// --- Layer 2: OpenMP-style fork-join team --------------------
	team := threading.NewTeam(p)
	hist := make([]int, 10)
	team.Parallel(func(tc *threading.TeamCtx) {
		// Work-sharing loop with a dynamic schedule; Critical
		// protects the shared histogram, as omp critical would.
		tc.For(threading.Dynamic(4096), 0, len(data), func(i int) {
			bucket := int(data[i]) * 10 / len(data)
			_ = bucket
		})
		tc.Barrier()
		tc.Critical(func() { hist[0]++ })
		tc.Single(func() { fmt.Println("\n  team: single construct ran once") })
	})
	team.Close()
	fmt.Printf("  team: critical section entered by all %d members: %d\n", p, hist[0])

	// --- Layer 3: Cilk-style work stealing -----------------------
	pool := threading.NewPool(p)
	var fib func(c *threading.PoolCtx, n int, out *uint64)
	fib = func(c *threading.PoolCtx, n int, out *uint64) {
		if n < 2 {
			*out = uint64(n)
			return
		}
		var a, b uint64
		c.Spawn(func(cc *threading.PoolCtx) { fib(cc, n-1, &a) })
		fib(c, n-2, &b)
		c.Sync()
		*out = a + b
	}
	var result uint64
	pool.Run(func(c *threading.PoolCtx) { fib(c, 25, &result) })
	stats := pool.Stats()
	pool.Close()
	fmt.Printf("\n  pool: fib(25) = %d via %d spawned tasks, %d steals\n",
		result, stats.Spawns, stats.Steals)
}
