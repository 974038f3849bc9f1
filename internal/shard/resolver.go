package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"threading/internal/sched"
)

// ErrClosed is returned by operations on a closed Resolver.
var ErrClosed = errors.New("shard: resolver is closed")

// handle is one shard's routing record. inflight counts dispatches the
// Resolver has assigned but not yet seen complete; retired marks a
// shard removed from routing whose drain is waiting for inflight to
// reach zero. The inc-then-check-retired order in acquire pairs with
// the set-retired-then-read-inflight order in Drain so a dispatch
// never lands on a shard whose drain already observed it idle.
// inflight is padded onto its own cache line: every dispatch and
// completion on a shard bumps it, and handles are allocated together
// by the balancer-facing slices, so unpadded counters of neighbouring
// shards (and the id/exec words every acquire reads) would false-share.
type handle struct {
	id   int
	exec Executor

	_        [sched.CacheLine]byte
	inflight atomic.Int64
	_        [sched.CacheLine - 8]byte
	retired  atomic.Bool
}

// load is the signal the least-loaded balancer reads: assigned-but-
// unfinished dispatches plus the runtime's queued work (PendingWorker).
func (h *handle) load() int64 {
	l := h.inflight.Load()
	if pw, ok := h.exec.(PendingWorker); ok {
		l += pw.PendingWork()
	}
	return l
}

// Resolver routes work across a mutable set of shards. It implements
// Executor, so callers written against the interface are oblivious to
// sharding: a ParallelForCtx splits the range into one contiguous part
// per shard and dispatches each part through the balancer, a reduction
// additionally folds the per-shard partials, and a submission routes
// whole to one shard.
//
// The Resolver owns its shards: Close (and Drain, for one shard)
// quiesces and closes them. Construct with New.
type Resolver struct {
	mu     sync.Mutex
	live   []*handle // copy-on-write: mutations replace the slice
	nextID int
	bal    Balancer
	closed bool

	async sched.AsyncGroup // in-flight SubmitCtx tasks, joined by Quiesce
}

// config collects New's options.
type config struct {
	shards []Executor
	bal    Balancer
}

// Option configures a Resolver at construction.
type Option func(*config)

// WithShards sets the initial shard set. At least one shard is
// required; the Resolver takes ownership and will Close them.
func WithShards(execs ...Executor) Option {
	return func(c *config) { c.shards = append(c.shards, execs...) }
}

// WithBalancer selects the routing balancer. The default is
// round-robin.
func WithBalancer(b Balancer) Option {
	return func(c *config) { c.bal = b }
}

// New returns a Resolver routing across the shards given via
// WithShards, which must supply at least one.
func New(opts ...Option) (*Resolver, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.shards) == 0 {
		return nil, errors.New("shard: resolver needs at least one shard (WithShards)")
	}
	if cfg.bal == nil {
		cfg.bal = RoundRobin()
	}
	r := &Resolver{bal: cfg.bal}
	for _, e := range cfg.shards {
		r.live = append(r.live, &handle{id: r.nextID, exec: e})
		r.nextID++
	}
	return r, nil
}

// BalancerName reports the name of the configured balancer.
func (r *Resolver) BalancerName() string { return r.bal.Name() }

// Shards returns the ids of the currently routable shards, in routing
// order.
func (r *Resolver) Shards() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]int, len(r.live))
	for i, h := range r.live {
		ids[i] = h.id
	}
	return ids
}

// NumShards reports the number of currently routable shards.
func (r *Resolver) NumShards() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// AddShard adds a shard to the routing set and returns its id. The
// Resolver takes ownership of the executor.
func (r *Resolver) AddShard(e Executor) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrClosed
	}
	id := r.nextID
	r.nextID++
	live := make([]*handle, 0, len(r.live)+1)
	live = append(live, r.live...)
	live = append(live, &handle{id: id, exec: e})
	r.live = live
	return id, nil
}

// Drain removes shard id from routing, waits for every dispatch
// already assigned to it (and every task submitted directly to it) to
// complete, then closes it — retirement without dropping work. The
// last shard cannot be drained. Drain returns the shard's first
// quiesce failure, if any.
func (r *Resolver) Drain(id int) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	idx := -1
	for i, h := range r.live {
		if h.id == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		r.mu.Unlock()
		return fmt.Errorf("shard: no routable shard %d", id)
	}
	if len(r.live) == 1 {
		r.mu.Unlock()
		return errors.New("shard: cannot drain the last shard")
	}
	h := r.live[idx]
	live := make([]*handle, 0, len(r.live)-1)
	live = append(live, r.live[:idx]...)
	live = append(live, r.live[idx+1:]...)
	r.live = live
	h.retired.Store(true)
	r.mu.Unlock()
	waitIdle(h)
	err := h.exec.Quiesce()
	h.exec.Close()
	return err
}

// waitIdle blocks until every dispatch assigned to h has completed.
// Drain and Close are control-plane operations, so a polling wait
// keeps the data-plane decrement a plain atomic.
func waitIdle(h *handle) {
	for i := 0; h.inflight.Load() > 0; i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// routable returns the current routing set.
func (r *Resolver) routable() ([]*handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	return r.live, nil
}

// acquire picks a shard through the balancer and reserves one dispatch
// on it, retrying if the pick raced a Drain.
func (r *Resolver) acquire(key func() uint64) (*handle, error) {
	for {
		shards, err := r.routable()
		if err != nil {
			return nil, err
		}
		if len(shards) == 0 {
			return nil, ErrClosed
		}
		i := 0
		if len(shards) > 1 {
			i = r.bal.Pick(len(shards), func(j int) int64 { return shards[j].load() }, key)
			if i < 0 || i >= len(shards) {
				i = 0
			}
		}
		h := shards[i]
		h.inflight.Add(1)
		if h.retired.Load() {
			// Raced a Drain between snapshot and reservation; the
			// drainer is waiting on inflight, so back out and repick.
			h.inflight.Add(-1)
			continue
		}
		return h, nil
	}
}

// release returns one reserved dispatch.
func release(h *handle) { h.inflight.Add(-1) }

// parts returns how many contiguous parts an n-iteration loop should
// split into: one per routable shard, capped by the iteration count.
func (r *Resolver) parts(n int) int {
	r.mu.Lock()
	k := len(r.live)
	r.mu.Unlock()
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// cut returns part i of [lo, hi) split into parts near-equal
// contiguous pieces.
func cut(lo, hi, parts, i int) (int, int) {
	n := hi - lo
	base, rem := n/parts, n%parts
	start := lo + i*base
	if i < rem {
		start += i
	} else {
		start += rem
	}
	end := start + base
	if i < rem {
		end++
	}
	return start, end
}

// acquireParts reserves one shard per part up front, so a least-loaded
// balancer sees the tentative load of the parts already placed and
// spreads the remainder.
func (r *Resolver) acquireParts(parts int, key func() uint64) ([]*handle, error) {
	handles := make([]*handle, parts)
	for i := range handles {
		h, err := r.acquire(key)
		if err != nil {
			for _, a := range handles[:i] {
				release(a)
			}
			return nil, err
		}
		handles[i] = h
	}
	return handles, nil
}

// firstErr collects the first failure across concurrent part
// dispatches.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) record(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// ParallelForCtx splits [lo, hi) into one contiguous part per routable
// shard, dispatches the parts concurrently through the balancer, and
// blocks until all complete. Under the affinity balancer every part
// routes to the submitter's shard, trading spread for locality.
func (r *Resolver) ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error {
	if lo >= hi {
		return ctx.Err()
	}
	key := submitterKey()
	parts := r.parts(hi - lo)
	handles, err := r.acquireParts(parts, key)
	if err != nil {
		return err
	}
	if parts == 1 {
		defer release(handles[0])
		return handles[0].exec.ParallelForCtx(ctx, lo, hi, grain, body)
	}
	var fe firstErr
	var wg sync.WaitGroup
	for i := 1; i < parts; i++ {
		l, h := cut(lo, hi, parts, i)
		hd := handles[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release(hd)
			fe.record(hd.exec.ParallelForCtx(ctx, l, h, grain, body))
		}()
	}
	// Part 0 runs on the calling goroutine, keeping the submitter on
	// the help-first path of its own shard.
	l, h := cut(lo, hi, parts, 0)
	fe.record(handles[0].exec.ParallelForCtx(ctx, l, h, grain, body))
	release(handles[0])
	wg.Wait()
	return fe.err
}

// ParallelReduceCtx splits the reduction like ParallelForCtx and folds
// the per-shard partial results with combine. combine must be
// associative and commutative; on error the identity is returned.
func (r *Resolver) ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	if lo >= hi {
		return identity, ctx.Err()
	}
	key := submitterKey()
	parts := r.parts(hi - lo)
	handles, err := r.acquireParts(parts, key)
	if err != nil {
		return identity, err
	}
	if parts == 1 {
		defer release(handles[0])
		return handles[0].exec.ParallelReduceCtx(ctx, lo, hi, grain, identity, body, combine)
	}
	partials := make([]float64, parts)
	var fe firstErr
	var wg sync.WaitGroup
	run := func(i int) {
		l, h := cut(lo, hi, parts, i)
		v, err := handles[i].exec.ParallelReduceCtx(ctx, l, h, grain, identity, body, combine)
		partials[i] = v
		fe.record(err)
		release(handles[i])
	}
	for i := 1; i < parts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	if fe.err != nil {
		return identity, fe.err
	}
	acc := identity
	for _, v := range partials {
		acc = combine(acc, v)
	}
	return acc, nil
}

// SubmitCtx routes fn whole to one shard chosen by the balancer and
// returns without waiting. Completion and failures are observed
// through Quiesce; the reservation pins the shard against Drain until
// fn finishes, so draining never drops submitted work.
func (r *Resolver) SubmitCtx(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	h, err := r.acquire(submitterKey())
	if err != nil {
		return err
	}
	r.async.Add()
	go func() {
		defer r.async.Done()
		defer release(h)
		// A single-iteration loop gives the submission a synchronous
		// completion point on the shard, which is what ties the
		// reservation (and so Drain) to the task actually finishing.
		//threadvet:ignore grainconst the loop is a single task, not an iteration space
		r.async.Record(h.exec.ParallelForCtx(ctx, 0, 1, 1, func(_, _ int) { fn() }))
	}()
	return nil
}

// Quiesce blocks until every task submitted through the Resolver has
// completed, then quiesces each routable shard (covering work
// submitted to a shard directly), and returns the first failure.
func (r *Resolver) Quiesce() error {
	err := r.async.Wait()
	shards, rerr := r.routable()
	if rerr != nil {
		if err != nil {
			return err
		}
		return rerr
	}
	for _, h := range shards {
		if e := h.exec.Quiesce(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Close retires every shard — waiting for assigned dispatches, then
// quiescing and closing each — and marks the Resolver unusable.
// Close is idempotent.
func (r *Resolver) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	shards := r.live
	r.live = nil
	r.mu.Unlock()
	for _, h := range shards {
		h.retired.Store(true)
	}
	for _, h := range shards {
		waitIdle(h)
	}
	_ = r.async.Wait()
	for _, h := range shards {
		_ = h.exec.Quiesce()
		h.exec.Close()
	}
}

// PendingWork sums the queued work across every routable shard, so a
// Resolver used as a shard of an outer Resolver still feeds its
// least-loaded balancer.
func (r *Resolver) PendingWork() int64 {
	r.mu.Lock()
	shards := r.live
	r.mu.Unlock()
	var sum int64
	for _, h := range shards {
		sum += h.load()
	}
	return sum
}

// Workers sums the worker counts of every routable shard whose
// executor reports one (the worksteal pools; forkjoin teams don't).
// With ParkedWorkers and PendingWork it lets a sharded deployment sit
// behind the metrics stall watchdog like a single pool.
func (r *Resolver) Workers() int {
	r.mu.Lock()
	shards := r.live
	r.mu.Unlock()
	var sum int
	for _, h := range shards {
		if wk, ok := h.exec.(interface{ Workers() int }); ok {
			sum += wk.Workers()
		}
	}
	return sum
}

// ParkedWorkers sums the parked-worker counts across routable shards
// that report one.
func (r *Resolver) ParkedWorkers() int {
	r.mu.Lock()
	shards := r.live
	r.mu.Unlock()
	var sum int
	for _, h := range shards {
		if pk, ok := h.exec.(interface{ ParkedWorkers() int }); ok {
			sum += pk.ParkedWorkers()
		}
	}
	return sum
}

// Stat is one shard's scheduler counters, tagged with the shard id.
type Stat struct {
	ID       int
	Snapshot sched.Snapshot
}

// statser is the optional stats surface of the underlying runtimes,
// asserted per shard.
type statser interface{ Stats() sched.Snapshot }

// ShardStats returns each routable shard's counter snapshot in shard
// id order. Shards whose executor exposes no Stats method are omitted.
func (r *Resolver) ShardStats() []Stat {
	r.mu.Lock()
	shards := r.live
	r.mu.Unlock()
	out := make([]Stat, 0, len(shards))
	for _, h := range shards {
		if s, ok := h.exec.(statser); ok {
			out = append(out, Stat{ID: h.id, Snapshot: s.Stats()})
		}
	}
	return out
}

// Stats returns the sum of every routable shard's counters — the
// merged view the aggregate reporting paths use.
func (r *Resolver) Stats() sched.Snapshot {
	var sum sched.Snapshot
	for _, st := range r.ShardStats() {
		sum = sum.Add(st.Snapshot)
	}
	return sum
}
