package worksteal

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// allocsPerRun measures the average heap allocations of one Run call
// issuing spawns tasks, after the pool's freelists and rings have been
// warmed.
func allocsPerRun(p *Pool, spawns int, body func(*Ctx)) float64 {
	run := func() {
		p.Run(func(c *Ctx) {
			for i := 0; i < spawns; i++ {
				c.Spawn(body)
			}
			c.Sync()
		})
	}
	for i := 0; i < 5; i++ {
		run() // warm freelists, deque rings, parker state
	}
	return testing.AllocsPerRun(10, run)
}

// fillArena leaves at least n task records circulating in p's arenas.
// A record recycles into the arena of the slot that ran it, and a
// thief keeps part of what it recycled, so a warm-up of plain runs
// only grows the population as far as those runs' steals needed: a
// later run whose thieves take more can find the spawner's arena dry
// and allocate, which -race's slowdown makes common. Here every body
// waits at a gate the root opens after its last spawn, so all n
// records are live at once, and they stay in circulation afterwards.
func fillArena(p *Pool, n int) {
	gate := make(chan struct{})
	wait := func(*Ctx) { <-gate }
	p.Run(func(c *Ctx) {
		for i := 0; i < n; i++ {
			c.Spawn(wait)
		}
		close(gate)
		c.Sync()
	})
}

// TestSpawnZeroAlloc proves the arena removes the per-spawn
// allocation: quadrupling the spawn count must not move the per-run
// allocation count (the fixed Run overhead — frame, region, root
// closure — cancels in the differential). The arena is first filled
// past what a 256-spawn run can need (its own records plus every
// thief's hoard, at most maxLocalFree each), so neither size is
// measured while the record population is still growing.
func TestSpawnZeroAlloc(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var sink atomic.Int64
	body := func(*Ctx) { sink.Add(1) }

	fillArena(p, 1024)
	small := allocsPerRun(p, 64, body)
	big := allocsPerRun(p, 256, body)
	perSpawn := (big - small) / 192
	if perSpawn > 0.05 {
		t.Errorf("Spawn allocates: %.3f allocs/spawn (runs: %.1f @64 vs %.1f @256)",
			perSpawn, small, big)
	}
}

// allocsPerFor measures one Run of an eager or lazy ForDAC over n
// iterations at the given grain.
func allocsPerFor(p *Pool, n, grain int, body func(*Ctx, int, int)) float64 {
	run := func() {
		p.Run(func(c *Ctx) {
			c.ForDAC(0, n, grain, body)
		})
	}
	for i := 0; i < 5; i++ {
		run()
	}
	return testing.AllocsPerRun(10, run)
}

// TestForDACZeroAlloc proves eager chunk descriptors recycle: 4x the
// chunk count must not move the per-run allocation count.
func TestForDACZeroAlloc(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var sink atomic.Int64
	body := func(_ *Ctx, l, h int) { sink.Add(int64(h - l)) }

	const grain = 16
	small := allocsPerFor(p, 64*grain, grain, body)
	big := allocsPerFor(p, 256*grain, grain, body)
	perChunk := (big - small) / 192
	if perChunk > 0.05 {
		t.Errorf("eager ForDAC allocates: %.3f allocs/chunk (runs: %.1f vs %.1f)",
			perChunk, small, big)
	}
}

// TestForLazyZeroAlloc proves lazy-split children recycle. Splits only
// happen under observed demand, so the differential bound is the same:
// whatever splitting occurs must come from the arena.
func TestForLazyZeroAlloc(t *testing.T) {
	p := NewPool(2, WithPartitioner(Lazy))
	defer p.Close()
	var sink atomic.Int64
	body := func(_ *Ctx, l, h int) { sink.Add(int64(h - l)) }

	const grain = 16
	small := allocsPerFor(p, 64*grain, grain, body)
	big := allocsPerFor(p, 256*grain, grain, body)
	perChunk := (big - small) / 192
	if perChunk > 0.05 {
		t.Errorf("lazy ForDAC allocates: %.3f allocs/chunk (runs: %.1f vs %.1f)",
			perChunk, small, big)
	}
}

// TestArenaRecycleStress churns the arena under concurrent stealing,
// draining, and cancellation — the recycle-safety scenarios: stolen
// tasks recycled on the thief, records crossing back through the
// pool-wide freelist, and stragglers observing a parent frame after
// its last child finished. Run with -race this asserts the recycle
// path introduces no data race.
func TestArenaRecycleStress(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	rounds := 40
	if testing.Short() {
		rounds = 10
	}

	for round := 0; round < rounds; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		// Half the rounds cancel mid-flight from outside.
		if round%2 == 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sink.Load() == 0 {
				}
				cancel()
			}()
		}
		var spawnTree func(c *Ctx, depth int)
		spawnTree = func(c *Ctx, depth int) {
			sink.Add(1)
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				c.Spawn(func(cc *Ctx) { spawnTree(cc, depth-1) })
			}
			c.ForDAC(0, 64, 8, func(_ *Ctx, l, h int) { sink.Add(int64(h - l)) })
			c.Sync()
		}
		_ = p.RunCtx(ctx, func(c *Ctx) { spawnTree(c, 3) })
		cancel()
		wg.Wait()
		sink.Store(0)
	}
	// The pool must still run to completion after the churn.
	var total atomic.Int64
	p.Run(func(c *Ctx) {
		c.ForDAC(0, 1000, 10, func(_ *Ctx, l, h int) { total.Add(int64(h - l)) })
	})
	if total.Load() != 1000 {
		t.Fatalf("post-stress ForDAC covered %d of 1000 iterations", total.Load())
	}
}
