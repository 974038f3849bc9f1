package worksteal

import (
	"fmt"

	"threading/internal/tracez"
)

// Partitioner selects how ForDAC distributes loop iterations over the
// workers.
type Partitioner int

const (
	// Eager is the paper-faithful cilk_for decomposition: the
	// iteration space is recursively halved into spawned tasks up
	// front, so every chunk reaches an idle worker only through a
	// steal. This serializes chunk distribution through the stealing
	// protocol — the behaviour the reproduced paper identifies as the
	// reason cilk_for trails work-sharing on flat data-parallel loops
	// (Figs. 1-4) — and is therefore required when reproducing the
	// paper's figures.
	Eager Partitioner = iota
	// Lazy is demand-driven binary splitting in the style of TBB's
	// auto_partitioner: the executing worker iterates in place and
	// splits off half its remaining range only when its own deque is
	// empty and some other worker is hungry (parked or searching).
	// A balanced flat loop thus runs with near-sequential overhead,
	// while imbalance or idleness still triggers splitting.
	Lazy
)

// String returns the partitioner's flag-friendly name.
func (p Partitioner) String() string {
	switch p {
	case Eager:
		return "eager"
	case Lazy:
		return "lazy"
	default:
		return "unknown"
	}
}

// ParsePartitioner converts a flag value ("eager" or "lazy") to a
// Partitioner.
func ParsePartitioner(s string) (Partitioner, error) {
	switch s {
	case "eager", "":
		return Eager, nil
	case "lazy":
		return Lazy, nil
	default:
		return Eager, fmt.Errorf("worksteal: unknown partitioner %q (have eager, lazy)", s)
	}
}

// DefaultGrain computes the cilk_for default grain size for n
// iterations on p workers: min(2048, ceil(n/(8p))), the heuristic the
// Cilk Plus runtime documents. Small grains expose parallelism; the
// cap bounds scheduling overhead on huge loops.
func DefaultGrain(n, p int) int {
	if p < 1 {
		p = 1
	}
	g := (n + 8*p - 1) / (8 * p)
	if g > 2048 {
		g = 2048
	}
	if g < 1 {
		g = 1
	}
	return g
}

// ForDAC executes body over [lo, hi) under the pool's configured
// partitioner (WithPartitioner) and joins every spawned subrange
// before returning.
//
// Under Eager it mirrors cilk_for: ranges larger than grain are
// halved, the upper half spawned, and the lower half processed by the
// continuation, so every chunk reaches an idle worker only through a
// steal — chunk distribution serialized through the stealing
// protocol, the behaviour the reproduced paper identifies as the
// reason cilk_for trails work-sharing on flat data-parallel loops.
// Under Lazy the worker iterates in place and splits off half its
// remaining range only when demand is observed.
//
// body receives the context of the worker actually executing the
// chunk (which differs from c for stolen chunks) and a half-open
// subrange [l, h) with h-l <= grain. A grain < 1 selects DefaultGrain.
func (c *Ctx) ForDAC(lo, hi, grain int, body func(cc *Ctx, l, h int)) {
	if lo >= hi {
		return
	}
	if grain < 1 {
		grain = DefaultGrain(hi-lo, c.pool.Workers())
	}
	if c.pool.part == Lazy {
		c.forLazy(lo, hi, grain, body)
	} else {
		c.forDAC(lo, hi, grain, body)
	}
	c.Sync()
}

// forLazy is the demand-driven splitting loop: process one grain-size
// chunk at a time, and only when another worker is hungry (and our
// deque has nothing queued for it already) split off the upper half
// of the remaining range as a stealable task. Cancellation is checked
// at every chunk boundary, like the eager path.
func (c *Ctx) forLazy(lo, hi, grain int, body func(cc *Ctx, l, h int)) {
	for lo < hi {
		if c.reg.Canceled() {
			return
		}
		if hi-lo > grain && c.worker.Len() == 0 && c.pool.core.Demand() {
			mid := lo + (hi-lo)/2
			c.worker.st.CountLazySplit()
			c.worker.ring.Record(tracez.KindLazySplit, int64(mid), int64(hi))
			c.spawnRange(mid, hi, grain, true, body)
			hi = mid
			continue
		}
		h := lo + grain
		if h > hi {
			h = hi
		}
		c.worker.ring.Record(tracez.KindChunkStart, int64(lo), int64(h))
		body(c, lo, h)
		c.worker.ring.Record(tracez.KindChunkEnd, int64(lo), int64(h))
		lo = h
	}
}

// forDAC is the splitting loop: spawn the upper half, keep the lower,
// repeat until the range fits in one grain. Cancellation is checked
// before every split and before the leaf body — the chunk boundaries
// of the divide-and-conquer loop.
func (c *Ctx) forDAC(lo, hi, grain int, body func(cc *Ctx, l, h int)) {
	for hi-lo > grain {
		if c.reg.Canceled() {
			return
		}
		mid := lo + (hi-lo)/2
		// The upper half becomes a range task that re-enters forDAC on
		// whichever worker runs it; its implicit sync at task return
		// joins the nested spawns, as the closure form used to.
		c.spawnRange(mid, hi, grain, false, body)
		hi = mid
	}
	if c.reg.Canceled() {
		return
	}
	c.worker.ring.Record(tracez.KindChunkStart, int64(lo), int64(hi))
	body(c, lo, hi)
	c.worker.ring.Record(tracez.KindChunkEnd, int64(lo), int64(hi))
}

// ForEach is a convenience wrapper over ForDAC that invokes body once
// per index rather than per chunk. As with ForDAC, body receives the
// context of the worker executing the iteration.
func (c *Ctx) ForEach(lo, hi, grain int, body func(cc *Ctx, i int)) {
	c.ForDAC(lo, hi, grain, func(cc *Ctx, l, h int) {
		for i := l; i < h; i++ {
			body(cc, i)
		}
	})
}

// Reducer accumulates a value across tasks without locking, in the
// manner of Cilk Plus reducers: each worker owns a private view,
// updated without synchronization, and Value folds the views together
// after the parallel phase. Unlike true Cilk reducers the combination
// order is by worker index, so Combine must be associative and
// commutative for a deterministic result.
type Reducer[T any] struct {
	views    []paddedView[T]
	identity T
	combine  func(a, b T) T
}

// paddedView keeps each worker's view on its own cache line; without
// the padding, adjacent views would false-share and the reduction
// benchmarks would measure cache-line ping-pong instead of scheduling.
type paddedView[T any] struct {
	v T
	_ [64]byte
}

// NewReducer returns a reducer for the pool with the given identity
// element and combining function. One view is allocated per dedicated
// worker and per help-first submitter slot, since either may execute
// chunks.
func NewReducer[T any](p *Pool, identity T, combine func(a, b T) T) *Reducer[T] {
	r := &Reducer[T]{
		views:    make([]paddedView[T], p.Workers()+MaxHelpers),
		identity: identity,
		combine:  combine,
	}
	for i := range r.views {
		r.views[i].v = identity
	}
	return r
}

// View returns a pointer to the calling worker's private view, for
// callers that want to accumulate in place within a chunk.
func (r *Reducer[T]) View(c *Ctx) *T {
	return &r.views[c.WorkerID()].v
}

// Value folds all views and returns the result. It must only be
// called after the parallel phase using the reducer has synced.
func (r *Reducer[T]) Value() T {
	acc := r.identity
	for i := range r.views {
		acc = r.combine(acc, r.views[i].v)
	}
	return acc
}
