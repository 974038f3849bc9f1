package forkjoin

import (
	"context"
	"errors"

	"threading/internal/sched"
)

// ErrClosed is returned by SubmitCtx on a closed team.
var ErrClosed = errors.New("forkjoin: team is closed")

// The methods in this file make *Team satisfy the shard.Executor
// submission surface, the runtime-neutral interface the shard.Resolver
// routes over. A Team runs one region at a time. An executor call that
// finds the team free runs its loop as a team region; one that finds
// it busy — another caller's region, or a region body calling back
// into its own team — runs the loop as a serialized region on the
// calling goroutine, a team of one, as OpenMP runs a parallel
// construct that meets an active region. No caller waits for another's
// region. Direct Parallel/ParallelCtx callers keep the original
// single-caller contract and panic on a busy team.

// executorSchedule maps the Executor grain argument onto a
// work-sharing schedule: a positive grain selects dynamic chunking at
// that chunk size (the closest analogue of a task grain), anything
// else selects the team's default schedule.
func (t *Team) executorSchedule(grain int) Schedule {
	if grain > 0 {
		return Dynamic(grain)
	}
	return t.opts.DefaultSchedule
}

// ParallelForCtx distributes [lo, hi) over the team, or runs it as a
// serialized region when the team is busy, and blocks until the loop
// is done. A grain > 0 selects the dynamic schedule at that chunk
// size; otherwise the team's default schedule applies.
func (t *Team) ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error {
	if lo >= hi {
		return ctx.Err()
	}
	s := t.executorSchedule(grain)
	if ran, err := t.tryParallel(ctx, func(tc *Ctx) {
		tc.ForRangeNoWait(s, lo, hi, body)
	}); ran {
		return err
	}
	return serialized(ctx, func(reg *sched.Region) {
		t.serialFor(reg, s, lo, hi, body)
	})
}

// ParallelReduceCtx reduces over [lo, hi) on the team, or as a
// serialized region when the team is busy: body folds each assigned
// chunk into the member's accumulator (seeded with identity) and
// combine folds the members' partials. combine must be associative
// and commutative. On error the identity is returned.
func (t *Team) ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	if lo >= hi {
		return identity, ctx.Err()
	}
	s := t.executorSchedule(grain)
	var result float64
	ran, err := t.tryParallel(ctx, func(tc *Ctx) {
		r := tc.ReduceFloat64(s, lo, hi, identity, body, combine)
		tc.Master(func() { result = r })
	})
	if !ran {
		acc := identity
		err = serialized(ctx, func(reg *sched.Region) {
			t.serialFor(reg, s, lo, hi, func(l, h int) { acc = body(l, h, acc) })
		})
		result = combine(identity, acc)
	}
	if err != nil {
		return identity, err
	}
	return result, nil
}

// SubmitCtx runs fn asynchronously on a goroutine of its own as a
// serialized region and returns without waiting for it: fn holds no
// member, so loops it runs on this team take the team when it is free.
// Completion and the first failure are observed through Quiesce. The
// caller must Quiesce before Close.
func (t *Team) SubmitCtx(ctx context.Context, fn func()) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t.async.Add()
	go func() {
		defer t.async.Done()
		t.async.Record(serialized(ctx, func(*sched.Region) { fn() }))
	}()
	return nil
}

// serialized runs fn on the calling goroutine as a serialized region,
// the team of one OpenMP gives a parallel construct that finds its
// team busy. The region is built from ctx, so an expired ctx skips fn,
// and a panic in fn is recovered into a *sched.PanicError. It touches
// no member and writes no tracer ring: rings are single-writer per
// member.
func serialized(ctx context.Context, fn func(reg *sched.Region)) error {
	reg := sched.NewRegion(ctx)
	if !reg.Canceled() {
		func() {
			defer func() {
				if p := recover(); p != nil {
					reg.RecordPanic(p)
				}
			}()
			fn(reg)
		}()
	}
	return reg.Finish()
}

// serialFor runs [lo, hi) in the chunks a team of one would claim
// under s — the whole range for a plain static schedule, Chunk
// iterations for a chunked static or dynamic one, halving chunks for
// guided — checking reg before each chunk and counting each on shard 0.
func (t *Team) serialFor(reg *sched.Region, s Schedule, lo, hi int, body func(l, h int)) {
	st := t.stats.Shard(0)
	for l := lo; l < hi && !reg.Canceled(); {
		h := hi
		switch {
		case s.Kind == ScheduleGuided:
			h = l + max((hi-l)/2, s.Chunk, 1)
		case s.Kind == ScheduleDynamic || s.Chunk > 0:
			h = l + max(s.Chunk, 1)
		}
		h = min(h, hi)
		st.CountLoopChunk()
		body(l, h)
		l = h
	}
}

// Quiesce blocks until every task submitted with SubmitCtx has
// completed and returns the first failure recorded since the previous
// Quiesce. Synchronous Parallel calls are unaffected — they already
// join before returning.
func (t *Team) Quiesce() error { return t.async.Wait() }

// PendingWork reports the number of live explicit tasks in the team —
// the signal a least-loaded balancer reads when choosing a shard.
func (t *Team) PendingWork() int64 { return t.outstanding.Load() }
