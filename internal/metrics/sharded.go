package metrics

import (
	"math"
	"sync/atomic"

	"threading/internal/sched"
)

// padded is one counter slot padded out to a cache line, the same
// idiom as the worksteal pool's counter block: adjacent shards never
// share a line, so concurrent writers on different shards don't
// invalidate each other's caches.
type padded struct {
	v atomic.Int64
	_ [sched.CacheLine - 8]byte
}

// ShardedCounter is a counter split across padded per-shard slots —
// the fast path for counts bumped concurrently from many workers or
// request goroutines. Writers pick a shard (worker ID, or any cheap
// spreading index such as a request ID) and Add there; readers Value
// sums the shards. Reads are O(shards) and slightly stale under
// concurrent writes, which is fine for scrape-time exposition.
type ShardedCounter struct {
	shards []padded
}

// NewShardedCounter returns a counter with n padded shards (minimum 1).
func NewShardedCounter(n int) *ShardedCounter {
	if n < 1 {
		n = 1
	}
	return &ShardedCounter{shards: make([]padded, n)}
}

// Add increments shard (i mod shards) by n. Any non-negative i works;
// callers pass their worker index or another cheap spreading value.
func (c *ShardedCounter) Add(i int, n int64) {
	c.shards[i%len(c.shards)].v.Add(n)
}

// Inc increments shard (i mod shards) by one.
func (c *ShardedCounter) Inc(i int) { c.Add(i, 1) }

// Value returns the sum across shards.
func (c *ShardedCounter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// floatBits and floatFromBits convert gauge values to and from their
// atomic storage representation.
func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
