package shard

import (
	"fmt"
	"sync/atomic"
)

// Balancer picks which shard receives the next unit of work. The
// Resolver consults it once per routed unit — per loop part, per
// submission — under concurrent submitters, so implementations must be
// safe for concurrent use.
//
// Pick receives the number of routable shards n (always >= 1), a load
// probe reporting shard i's current queued work (the Resolver's
// in-flight count for that shard plus the runtime's PendingWork, when
// exposed), and a lazily computed submitter key that is stable for one
// submitting goroutine (only affinity pays its cost). Pick returns an
// index in [0, n); out-of-range returns are clamped to 0 by the
// Resolver.
//
// The index is positional within the Resolver's current routing set,
// not a stable shard id: hot add/drain renumbers positions. Balancers
// that derive placement from the key (affinity) therefore provide
// best-effort stickiness — stable while the shard set is stable.
type Balancer interface {
	// Name returns the balancer's flag-friendly name.
	Name() string
	Pick(n int, load func(int) int64, key func() uint64) int
}

// RoundRobin returns a balancer cycling through shards in order. Each
// call returns a fresh instance with its own cursor.
func RoundRobin() Balancer { return &roundRobin{} }

type roundRobin struct{ next atomic.Uint64 }

func (b *roundRobin) Name() string { return "round-robin" }

func (b *roundRobin) Pick(n int, _ func(int) int64, _ func() uint64) int {
	return int((b.next.Add(1) - 1) % uint64(n))
}

// Random returns a balancer picking shards uniformly at random, from a
// lock-free splitmix64 sequence.
func Random() Balancer { return &random{} }

type random struct{ seq atomic.Uint64 }

func (b *random) Name() string { return "random" }

func (b *random) Pick(n int, _ func(int) int64, _ func() uint64) int {
	// splitmix64: each Add claims a distinct stream position, so
	// concurrent picks never share an output.
	x := b.seq.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// LeastLoaded returns a balancer picking the shard with the smallest
// current load: the Resolver's in-flight dispatch count plus the
// runtime's own pending-work counter (worksteal's queued-task count,
// forkjoin's live explicit tasks). Ties go to the lowest index.
func LeastLoaded() Balancer { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Pick(n int, load func(int) int64, _ func() uint64) int {
	best, bestLoad := 0, load(0)
	for i := 1; i < n; i++ {
		if l := load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// Affinity returns a balancer that sticks each submitting goroutine to
// one shard by hashing a goroutine-local key, preserving whatever
// cache locality the submitter has built up on that shard's workers.
// Stickiness is best-effort: hot add/drain changes the shard count and
// remaps keys.
func Affinity() Balancer { return affinity{} }

type affinity struct{}

func (affinity) Name() string { return "affinity" }

func (affinity) Pick(n int, _ func(int) int64, key func() uint64) int {
	// Finalize the raw goroutine id (a small counter) so consecutive
	// submitters spread across shards instead of clustering.
	x := key()
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int(x % uint64(n))
}

// ParseBalancer converts a flag value to a fresh Balancer instance.
// The empty string selects round-robin.
func ParseBalancer(s string) (Balancer, error) {
	switch s {
	case "round-robin", "":
		return RoundRobin(), nil
	case "random":
		return Random(), nil
	case "least-loaded":
		return LeastLoaded(), nil
	case "affinity":
		return Affinity(), nil
	default:
		return nil, fmt.Errorf("shard: unknown balancer %q (have round-robin, random, least-loaded, affinity)", s)
	}
}
